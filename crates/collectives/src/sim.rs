//! The simulated backend: run a schedule over N simulated ranks.
//!
//! Every rank gets a [`crate::state::RankState`] and a round cursor;
//! rounds advance event-driven over [`mpsim::multirank::Mailboxes`] on
//! the switched [`protosim::multinode`] fabric, all in one world: the
//! driver is the layer bound above the fabric, and every hop of every
//! message, every round start and every timed fault is a typed
//! [`MultiEvent`], so a message allocates nothing once its payload
//! buffer is recycled. The data path is the same `payload`/`apply` code
//! the blocking executor uses, so for identical schedules and inputs the
//! two backends produce identical bytes — the simulation only decides
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
use std::rc::Rc;

use faultlab::{DegradeWindow, FaultPlan};
use hwmodel::ClusterSpec;
use mpsim::multirank::{Mailboxes, Payload};
use mpsim::LibProfile;
use protosim::multinode::{MultiEngine, MultiEvent, MultiNet, Upper};
use protosim::Slots;
use simcore::trace::{stages, SharedSink, SpanRec};
use simcore::units::us_to_secs;
use simcore::{SimDuration, SimTime};

use crate::exec::{actual_rank, virtual_rank, ExecCtx};
use crate::lifecycle::{step, CollRound};
use crate::op::CollOp;
use crate::plan::{auto_algorithm, build};
use crate::recovery::{EpochRecord, Membership, RecoveryPolicy, RecoveryReport};
use crate::schedule::{RecvWhat, Schedule, SendWhat};
use crate::state::{CollOutput, RankState, Reduction};

/// Trace track carrying rank `rank`'s collective-round spans, disjoint
/// from the per-resource hardware tracks.
pub fn coll_track(rank: usize) -> u32 {
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
    /// [`coll_track`]) to this sink.
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
    /// replan over survivors (see [`crate::recovery`]).
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

/// What a simulated collective run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Simulated seconds until the last completing rank finished.
    pub seconds: f64,
    /// Events the engine executed (work proxy for events/sec).
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
/// current round.
#[derive(Debug, Clone, Copy)]
struct RecvSlot {
    rank: u32,
    slot: u32,
}

struct RankRun {
    state: RankState,
    life: CollRound,
    round: usize,
    /// Receives still outstanding in the current round.
    waiting: usize,
    /// Arrived payloads for the current round, recv-step indexed: the
    /// session's own buffers, shared rather than copied.
    arrived: Vec<Option<Payload>>,
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

/// One epoch's schedule as three flat tables, indexed by group rank
/// with every peer already rotated to its group rank: the driver owns
/// it without cloning the caller's nested plans round by round.
struct Steps {
    /// Rank `g`'s rounds are `rounds[first_round[g]..first_round[g + 1]]`.
    first_round: Vec<u32>,
    /// Round `k` sends `sends[rounds[k].0..rounds[k + 1].0]` and
    /// receives `recvs[rounds[k].1..rounds[k + 1].1]`; a sentinel ends it.
    rounds: Vec<(u32, u32)>,
    /// `(destination, what)`.
    sends: Vec<(u32, SendWhat)>,
    /// `(source, what)`, in application order.
    recvs: Vec<(u32, RecvWhat)>,
}

/// One round's sends and receives, `(peer, what)` each.
type RoundSteps<'a> = (&'a [(u32, SendWhat)], &'a [(u32, RecvWhat)]);

impl Steps {
    fn new(schedule: &Schedule, root: usize) -> Steps {
        let n = schedule.nranks;
        let plans = || schedule.plans.iter().flat_map(|p| &p.rounds);
        let mut steps = Steps {
            first_round: Vec::with_capacity(n + 1),
            rounds: Vec::with_capacity(plans().count() + 1),
            sends: Vec::with_capacity(schedule.total_messages()),
            recvs: Vec::with_capacity(plans().map(|r| r.recvs.len()).sum()),
        };
        let peer = |v: u32| idx32(actual_rank(v as usize, root, n));
        for g in 0..n {
            steps.first_round.push(idx32(steps.rounds.len()));
            for round in &schedule.plans[virtual_rank(g, root, n)].rounds {
                steps
                    .rounds
                    .push((idx32(steps.sends.len()), idx32(steps.recvs.len())));
                let sends = round.sends.iter().map(|s| (peer(s.to), s.what.clone()));
                steps.sends.extend(sends);
                let recvs = round.recvs.iter().map(|r| (peer(r.from), r.what.clone()));
                steps.recvs.extend(recvs);
            }
        }
        steps.first_round.push(idx32(steps.rounds.len()));
        steps
            .rounds
            .push((idx32(steps.sends.len()), idx32(steps.recvs.len())));
        steps
    }

    /// Rank `g`'s round `k`, if it has one: its sends and receives.
    fn round(&self, g: usize, k: usize) -> Option<RoundSteps<'_>> {
        let i = self.first_round[g] as usize + k;
        if i >= self.first_round[g + 1] as usize {
            return None;
        }
        let ((s0, r0), (s1, r1)) = (self.rounds[i], self.rounds[i + 1]);
        Some((
            &self.sends[s0 as usize..s1 as usize],
            &self.recvs[r0 as usize..r1 as usize],
        ))
    }
}

/// The survivors' carry between epochs: world-indexed kill switches and
/// membership machines.
#[derive(Default)]
struct Carry {
    killed: Vec<bool>,
    member: Vec<Membership>,
}

/// One epoch's layer above the fabric: the session's mailboxes and
/// every rank's round cursor, driven by [`MultiEvent`]s.
struct Driver {
    steps: Rc<Steps>,
    reduction: Option<Reduction>,
    sess: Mailboxes<RecvSlot>,
    ranks: Vec<RankRun>,
    trace: Option<SharedSink>,
    /// Group index → world rank (identity in the original epoch).
    world: Vec<usize>,
    /// World-indexed kill switches, flipped by timed kill events.
    killed: Vec<bool>,
    /// Simulated time spent in earlier epochs (trace offset).
    base: SimDuration,
    recovery: Option<RecoveryRt>,
    deadlines: Slots<Deadline>,
    /// Payloads applied and no longer shared, for the next sends.
    spare: Vec<Payload>,
}

/// The [`Driver`] as the fabric holds it.
struct Epoch(RefCell<Driver>);

impl Upper for Epoch {
    fn dispatch(&self, eng: &mut MultiEngine, ev: MultiEvent) {
        self.0.borrow_mut().dispatch(eng, ev);
    }
}

/// Narrow a rank or receive index for a [`RecvSlot`].
fn idx32(i: usize) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "a simulated world of more than u32::MAX ranks cannot be built"
    )]
    u32::try_from(i).expect("index fits a u32")
}

impl Driver {
    /// An untraced driver for one epoch over the (possibly compacted)
    /// group `world`, starting at time zero, taking the carry.
    fn new(
        profile: &LibProfile,
        schedule: &Schedule,
        ctx: ExecCtx,
        contributions: &[&[u8]],
        world: Vec<usize>,
        carry: Carry,
        policy: Option<RecoveryPolicy>,
    ) -> Driver {
        let m = schedule.nranks;
        Driver {
            steps: Rc::new(Steps::new(schedule, ctx.root)),
            reduction: ctx.reduction,
            sess: Mailboxes::new(profile.clone(), m),
            ranks: (0..m)
                .map(|g| RankRun {
                    state: RankState::init(
                        schedule.op,
                        m,
                        virtual_rank(g, ctx.root, m),
                        contributions[g],
                    ),
                    life: CollRound::initial(),
                    round: 0,
                    waiting: 0,
                    arrived: Vec::new(),
                    round_start: SimTime::ZERO,
                    finish: None,
                })
                .collect(),
            trace: None,
            world,
            killed: carry.killed,
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
            spare: Vec::new(),
        }
    }

    fn dispatch(&mut self, eng: &mut MultiEngine, ev: MultiEvent) {
        match ev {
            MultiEvent::SendReady { msg } => self.sess.send_ready(eng, msg),
            MultiEvent::Landed { msg } => self.sess.landed(eng, msg),
            MultiEvent::Deliver { msg } => {
                if let Some((to, payload)) = self.sess.deliver(msg) {
                    self.on_arrival(eng, to, payload);
                }
            }
            MultiEvent::Arrive { msg } => {
                let (to, payload) = self.sess.arrive(msg);
                self.on_arrival(eng, to, payload);
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

    /// Keep `payload` for a later send once nothing else holds it.
    fn recycle(spare: &mut Vec<Payload>, mut payload: Payload) {
        if Rc::get_mut(&mut payload).is_some() {
            spare.push(payload);
        }
    }

    /// The bytes of `rank`'s send step `what`, in a recycled buffer.
    fn payload(&mut self, rank: usize, what: &SendWhat) -> Payload {
        let mut payload = self.spare.pop().unwrap_or_default();
        #[expect(
            clippy::expect_used,
            reason = "recycle keeps only payloads nothing else holds"
        )]
        let buf = Rc::get_mut(&mut payload).expect("a spare payload is unshared");
        buf.clear();
        self.ranks[rank].state.payload_into(what, buf);
        payload
    }

    /// Enter `rank`'s next round: post receives, issue sends. A round
    /// with no receives completes immediately.
    fn start_round(&mut self, eng: &mut MultiEngine, rank: usize) {
        if self.dead(rank) || self.aborted() {
            return;
        }
        let steps = Rc::clone(&self.steps);
        loop {
            let r = &mut self.ranks[rank];
            let Some((sends, recvs)) = steps.round(rank, r.round) else {
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
            r.round_start = eng.now();
            r.life = step(r.life, "post");
            for _ in sends {
                r.life = step(r.life, "send");
            }
            r.life = step(r.life, "drain");
            r.waiting = recvs.len();
            r.arrived.clear();
            r.arrived.resize(recvs.len(), None);
            for (slot, &(from, _)) in recvs.iter().enumerate() {
                let to = RecvSlot {
                    rank: idx32(rank),
                    slot: idx32(slot),
                };
                self.sess.post_recv(eng, rank, from as usize, 0, to);
            }
            for (to, what) in sends {
                let payload = self.payload(rank, what);
                self.sess.send(eng, rank, *to as usize, 0, payload);
            }
            if !recvs.is_empty() {
                let round = self.ranks[rank].round;
                self.arm_deadline(eng, rank, round, 0);
                return; // the last arrival resumes this rank
            }
            // No receives: the round is already complete; fold and loop
            // into the next one.
            self.complete_round(eng, rank);
        }
    }

    fn on_arrival(&mut self, eng: &mut MultiEngine, to: RecvSlot, payload: Payload) {
        let (rank, slot) = (to.rank as usize, to.slot as usize);
        if self.dead(rank) || self.aborted() {
            Self::recycle(&mut self.spare, payload);
            return;
        }
        let r = &mut self.ranks[rank];
        if let (Some(rt), Some((_, recvs))) = (&mut self.recovery, self.steps.round(rank, r.round))
        {
            // An arrival from a suspect is proof of life.
            rt.clear_if_suspect(self.world[recvs[slot].0 as usize]);
        }
        r.life = step(r.life, "recv");
        r.arrived[slot] = Some(payload);
        r.waiting -= 1;
        if r.waiting == 0 {
            self.complete_round(eng, rank);
            self.start_round(eng, rank);
        }
    }

    /// Apply the round's arrivals in schedule order, emit its span, and
    /// advance the cursor.
    fn complete_round(&mut self, eng: &mut MultiEngine, rank: usize) {
        let r = &mut self.ranks[rank];
        let mut bytes = 0u64;
        if let Some((_, recvs)) = self.steps.round(rank, r.round) {
            for ((_, what), payload) in recvs.iter().zip(r.arrived.drain(..)) {
                #[expect(
                    clippy::expect_used,
                    reason = "complete_round only runs once waiting hits zero, so every slot is filled"
                )]
                let payload = payload.expect("round completed with a receive slot empty");
                bytes += payload.len() as u64;
                r.state.apply(what, &payload, self.reduction);
                Self::recycle(&mut self.spare, payload);
            }
        }
        r.life = step(r.life, "finish");
        if let Some(t) = &self.trace {
            t.span(SpanRec {
                stage: stages::COLL_ROUND,
                track: coll_track(self.world[rank]),
                start: r.round_start + self.base,
                end: eng.now() + self.base,
                bytes,
                msg: (r.round + 1) as u64,
            });
        }
        r.round += 1;
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
        let Some((_, recvs)) = self.steps.round(d.rank, d.round) else {
            return;
        };
        let missing = recvs
            .iter()
            .zip(&r.arrived)
            .filter(|(_, arrived)| arrived.is_none());
        for (&(from, _), _) in missing {
            let s = self.world[from as usize];
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
    /// Group-indexed `(epoch-relative finish seconds, output)`.
    finished: Vec<Option<(f64, CollOutput)>>,
    /// Group-indexed bcast payload carry (empty-pattern for other ops).
    bcast_hold: Vec<Option<Vec<u8>>>,
}

/// Endpoint faults resolved out of `SimOptions`, world-rank indexed.
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
    schedule: &Schedule,
    ctx: ExecCtx,
    contributions: &[&[u8]],
    trace: &Option<SharedSink>,
    base_us: f64,
    world: Vec<usize>,
    carry: &mut Carry,
    policy: Option<RecoveryPolicy>,
    faults: &FaultSet,
) -> EpochOutcome {
    let m = schedule.nranks;
    let mut eng = MultiNet::engine(spec.clone(), m);
    if let Some(t) = trace {
        eng.set_trace_sink(Rc::clone(t));
    }
    let taken = std::mem::take(carry);
    let mut driver = Driver::new(profile, schedule, ctx, contributions, world, taken, policy);
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
        "fault-free {:?} epoch over {m} ranks left unmatched sends or receives",
        schedule.op
    );
    let mut finished = Vec::with_capacity(m);
    let mut bcast_hold = Vec::with_capacity(m);
    for (g, r) in driver.ranks.iter_mut().enumerate() {
        // Only a replan reads the carry, so a clean epoch copies nothing.
        bcast_hold.push(if aborted && schedule.op == CollOp::Bcast {
            r.state.bcast_payload().map(<[u8]>::to_vec)
        } else {
            None
        });
        let fin = (!aborted).then_some(r.finish).flatten().map(|t| {
            let vrank = virtual_rank(g, ctx.root, m);
            let state = std::mem::take(&mut r.state);
            (t.as_secs_f64(), state.into_output(schedule.op, vrank))
        });
        finished.push(fin);
    }
    carry.killed = std::mem::take(&mut driver.killed);
    let rt = driver.recovery.as_mut();
    let outcome = EpochOutcome {
        events,
        aborted,
        evicted: rt.as_ref().and_then(|rt| rt.evicted),
        evict_at_us: rt.as_ref().map_or(0.0, |rt| rt.evict_at_us),
        cleared: rt.as_ref().map_or(0, |rt| rt.suspects_cleared),
        finished,
        bcast_hold,
    };
    if let Some(rt) = rt {
        carry.member = std::mem::take(&mut rt.member);
    }
    outcome
}

/// Simulate `schedule` over `spec` hardware with `profile` library
/// costs. `contributions` are actual-rank indexed; so are the outputs.
///
/// With a [`RecoveryPolicy`] armed the run is an epoch loop: each
/// eviction compacts the group, re-elects the root if it died (a
/// broadcast re-roots on the lowest survivor already holding the
/// payload), replans, and re-executes. Reducing accumulators restart
/// from the original contributions (exactly-once safety), so the final
/// result is the reduction over the *survivors'* inputs.
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
    let faults = FaultSet::from_options(opts, n);
    if n == 1 {
        // The fabric needs two nodes; a single-rank collective is a
        // no-op with this rank's own data as the result.
        let out = RankState::init(schedule.op, 1, 0, &contributions[0]).into_output(schedule.op, 0);
        return SimReport {
            seconds: 0.0,
            events: 0,
            outputs: vec![Some(out)],
            finish_secs: vec![Some(0.0)],
            completed: 1,
            recovery: opts.recovery.map(|p| RecoveryReport {
                deadline_us: p.deadline_us,
                backoff_us: p.backoff_us,
                ..RecoveryReport::default()
            }),
        };
    }

    let mut carry = Carry {
        killed: vec![false; n],
        member: vec![Membership::initial(); n],
    };
    let mut alive = vec![true; n];
    let mut bcast_hold: Vec<Option<Vec<u8>>> = vec![None; n];
    if schedule.op == CollOp::Bcast {
        bcast_hold[ctx.root] = Some(contributions[ctx.root].clone());
    }
    let mut root_world = ctx.root;
    // The schedule replanned over the survivors, once a rank is evicted.
    let mut replanned: Option<Schedule> = None;
    let mut cur_world: Vec<usize> = (0..n).collect();
    let mut base_us = 0.0f64;
    let mut events = 0u64;
    let mut outputs: Vec<Option<CollOutput>> = vec![None; n];
    let mut finish_secs: Vec<Option<f64>> = vec![None; n];
    let mut report = RecoveryReport {
        deadline_us: opts.recovery.map_or(0.0, |p| p.deadline_us),
        backoff_us: opts.recovery.map_or(0.0, |p| p.backoff_us),
        ..RecoveryReport::default()
    };

    loop {
        #[expect(
            clippy::expect_used,
            reason = "eviction always re-elects a surviving root before replanning"
        )]
        let groot = cur_world
            .iter()
            .position(|&w| w == root_world)
            .expect("the root is always re-elected among survivors");
        let gctx = ExecCtx {
            root: groot,
            reduction: ctx.reduction,
        };
        let contribs: Vec<&[u8]> = cur_world
            .iter()
            .map(|&w| {
                if schedule.op != CollOp::Bcast {
                    contributions[w].as_slice()
                } else if w == root_world {
                    bcast_hold[w].as_deref().unwrap_or_default()
                } else {
                    &[]
                }
            })
            .collect();
        let outcome = run_epoch(
            spec,
            profile,
            replanned.as_ref().unwrap_or(schedule),
            gctx,
            &contribs,
            &opts.trace,
            base_us,
            cur_world.clone(),
            &mut carry,
            opts.recovery,
            &faults,
        );
        events += outcome.events;
        report.suspects_cleared += outcome.cleared;
        for (g, hold) in outcome.bcast_hold.into_iter().enumerate() {
            if let Some(p) = hold {
                bcast_hold[cur_world[g]] = Some(p);
            }
        }
        if !outcome.aborted {
            for (g, fin) in outcome.finished.into_iter().enumerate() {
                if let Some((secs, out)) = fin {
                    let w = cur_world[g];
                    finish_secs[w] = Some(us_to_secs(base_us) + secs);
                    outputs[w] = Some(out);
                }
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
        alive[ev] = false;
        report.evicted.push(ev);
        let survivors: Vec<usize> = (0..n).filter(|&r| alive[r]).collect();
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
        if !alive[root_world] {
            if schedule.op == CollOp::Bcast {
                match survivors.iter().copied().find(|&w| bcast_hold[w].is_some()) {
                    Some(w) => root_world = w,
                    // The payload died with the root before reaching
                    // any survivor: nothing left to broadcast.
                    None => break,
                }
            } else {
                root_world = survivors[0];
            }
        }
        if m == 1 {
            // Degenerate group: the collective is the lone survivor's
            // own data (for bcast, the payload it already holds).
            let w = survivors[0];
            let contribution = if schedule.op == CollOp::Bcast {
                bcast_hold[w].as_deref().unwrap_or_default()
            } else {
                &contributions[w]
            };
            outputs[w] =
                Some(RankState::init(schedule.op, 1, 0, contribution).into_output(schedule.op, 0));
            finish_secs[w] = Some(us_to_secs(base_us));
            report.retries += 1;
            break;
        }
        #[expect(
            clippy::expect_used,
            reason = "algorithm falls back to auto_algorithm, which plans every group size"
        )]
        let plan = build(schedule.op, algorithm, m)
            .expect("replanned schedule builds for the survivor group");
        replanned = Some(plan);
        cur_world = survivors;
        report.retries += 1;
    }

    let completed = outputs.iter().filter(|o| o.is_some()).count();
    let seconds = finish_secs.iter().flatten().copied().fold(0.0f64, f64::max);
    SimReport {
        seconds,
        events,
        outputs,
        finish_secs,
        completed,
        recovery: opts.recovery.is_some().then_some(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CollOp, Dtype, ReduceOp};
    use crate::plan::{algorithms_for, build, Algorithm};
    use crate::schedule::SendWhat;
    use crate::state::Reduction;

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
        let mut s = build(CollOp::Barrier, Algorithm::Linear, 2).unwrap();
        s.plans[1].rounds.clear();
        s.plans[0].rounds.remove(0);
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

    #[test]
    fn arrivals_are_held_by_reference_and_recycled_once_applied() {
        // Linear reduce over 3 ranks: the root's only round receives from
        // both peers, so the first arrival has to wait in `arrived`.
        let n = 3;
        let schedule = build(CollOp::Reduce, Algorithm::Linear, n).unwrap();
        let mut eng = MultiNet::engine(hwmodel::presets::pcs_ga620(), n);
        let inputs = u64s(n);
        let contributions: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let mut driver = Driver::new(
            &mpsim::libs::mpich(Default::default()).profile,
            &schedule,
            sum_ctx(),
            &contributions,
            (0..n).collect(),
            Carry {
                killed: vec![false; n],
                member: Vec::new(),
            },
            None,
        );
        driver.start_round(&mut eng, 0);
        let first: Payload = Rc::new(5u64.to_le_bytes().to_vec());
        let slot = |slot| RecvSlot { rank: 0, slot };
        driver.on_arrival(&mut eng, slot(0), Rc::clone(&first));
        let held = driver.ranks[0].arrived[0]
            .as_ref()
            .expect("the slot is filled");
        assert!(Rc::ptr_eq(held, &first), "the arrival was copied");
        assert_eq!(Rc::strong_count(&first), 2);
        let second: Payload = Rc::new(7u64.to_le_bytes().to_vec());
        let second_at = Rc::as_ptr(&second);
        driver.on_arrival(&mut eng, slot(1), second);
        // The round completed: `complete_round` folded both buffers in
        // (1 + 5 + 7), let go of the shared one and kept the other.
        assert_eq!(Rc::strong_count(&first), 1);
        assert_eq!(driver.ranks[0].round, 1);
        assert_eq!(driver.spare.len(), 1);
        // The next send reuses the kept buffer.
        let next = driver.payload(0, &SendWhat::Acc);
        assert_eq!(Rc::as_ptr(&next), second_at);
        assert_eq!(*next, 13u64.to_le_bytes());
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
