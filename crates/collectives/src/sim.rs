//! The simulated backend: run a schedule over N simulated ranks.
//!
//! Every rank gets a [`crate::state::RankState`] and a round cursor;
//! rounds advance event-driven over [`mpsim::MultiSession`] on the
//! switched [`protosim::multinode`] fabric. The data path is the same
//! `payload`/`apply` code the blocking executor uses, so for identical
//! schedules and inputs the two backends produce identical bytes — the
//! simulation only decides *when* things happen, never *what*.
//!
//! Faults come in three flavours: a list of [`RankFault`]s (kills at
//! time zero, per-rank degradation), a full [`faultlab::FaultPlan`]
//! (timed `kill-rank=R@T` deaths and fabric-wide degrade windows), and
//! — when a [`RecoveryPolicy`] is armed — the self-healing cycle of
//! [`crate::recovery`]: detect the stall, evict the dead rank, replan
//! over the survivors, resume. Without recovery a rank death still ends
//! as a bounded *partial* report, never a hang.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use faultlab::{DegradeWindow, FaultPlan};
use hwmodel::ClusterSpec;
use mpsim::multirank::Payload;
use mpsim::{LibProfile, MultiSession};
use protosim::multinode::{MultiEngine, MultiNet};
use simcore::trace::{stages, SharedSink, SpanRec};
use simcore::units::us_to_secs;
use simcore::{SimDuration, SimTime};

use crate::exec::{actual_rank, virtual_rank, ExecCtx};
use crate::lifecycle::{step, CollRound};
use crate::op::CollOp;
use crate::plan::{auto_algorithm, build};
use crate::recovery::{step_member, EpochRecord, Membership, RecoveryPolicy, RecoveryReport};
use crate::schedule::Schedule;
use crate::state::{CollOutput, RankState};

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
    /// World-indexed membership machines, shared across epochs.
    member: Rc<RefCell<Vec<Membership>>>,
    /// Set once a rank is evicted; the epoch then drains and replans.
    aborted: Cell<bool>,
    evicted: Cell<Option<usize>>,
    evict_at_us: Cell<f64>,
    suspects_cleared: Cell<usize>,
}

impl RecoveryRt {
    /// Proof of life for a suspect: step it back to `Active`.
    fn clear_if_suspect(&self, rank: usize) {
        let state = self.member.borrow()[rank];
        if state == Membership::Suspect {
            let recovered = step_member(state, "proof");
            self.member.borrow_mut()[rank] = step_member(recovered, "resume");
            self.suspects_cleared.set(self.suspects_cleared.get() + 1);
        }
    }
}

/// How many times one round's recv deadline re-arms before giving up on
/// detection (a stall that outlives this without any rank dying is a
/// planner bug, not a failure to recover from).
const MAX_DEADLINE_REARMS: u32 = 64;

struct Driver {
    schedule: Rc<Schedule>,
    ctx: ExecCtx,
    sess: MultiSession,
    ranks: Vec<RefCell<RankRun>>,
    trace: Option<SharedSink>,
    /// Group index → world rank (identity in the original epoch).
    world: Vec<usize>,
    /// World-indexed kill switches, flipped by timed kill events.
    killed: Rc<RefCell<Vec<bool>>>,
    /// Simulated time spent in earlier epochs (trace offset).
    base: SimDuration,
    recovery: Option<RecoveryRt>,
}

impl Driver {
    /// Epoch-local time shifted onto the whole-run timeline.
    fn abs(&self, t: SimTime) -> SimTime {
        t + self.base
    }

    fn dead(&self, g: usize) -> bool {
        self.killed.borrow()[self.world[g]]
    }

    fn aborted(&self) -> bool {
        self.recovery.as_ref().is_some_and(|rt| rt.aborted.get())
    }

    /// Enter `rank`'s next round: issue sends, post receives. A round
    /// with no receives completes immediately.
    fn start_round(self: &Rc<Self>, eng: &mut MultiEngine, rank: usize) {
        if self.dead(rank) || self.aborted() {
            return;
        }
        let n = self.schedule.nranks;
        let vrank = virtual_rank(rank, self.ctx.root, n);
        loop {
            let (sends, nrecvs) = {
                let mut r = self.ranks[rank].borrow_mut();
                let Some(round) = self.schedule.plans[vrank].rounds.get(r.round) else {
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
                let sends: Vec<(usize, Vec<u8>)> = round
                    .sends
                    .iter()
                    .map(|s| {
                        (
                            actual_rank(s.to as usize, self.ctx.root, n),
                            r.state.payload(&s.what),
                        )
                    })
                    .collect();
                for _ in 0..sends.len() {
                    r.life = step(r.life, "send");
                }
                r.life = step(r.life, "drain");
                r.waiting = round.recvs.len();
                r.arrived.clear();
                r.arrived.resize(round.recvs.len(), None);
                (sends, round.recvs.len())
            };
            for (slot, recv) in self.schedule.plans[vrank].rounds[self.ranks[rank].borrow().round]
                .recvs
                .iter()
                .enumerate()
            {
                let from = actual_rank(recv.from as usize, self.ctx.root, n);
                let this = Rc::clone(self);
                self.sess.post_recv(
                    eng,
                    rank,
                    from,
                    0,
                    Box::new(move |e, payload| this.on_arrival(e, rank, slot, payload)),
                );
            }
            for (to, payload) in sends {
                self.sess.send(eng, rank, to, 0, Rc::new(payload));
            }
            if nrecvs > 0 {
                let round_idx = self.ranks[rank].borrow().round;
                self.arm_deadline(eng, rank, round_idx, 0);
                return; // the last arrival resumes this rank
            }
            // No receives: the round is already complete; fold and loop
            // into the next one.
            self.complete_round(eng, rank);
        }
    }

    fn on_arrival(
        self: &Rc<Self>,
        eng: &mut MultiEngine,
        rank: usize,
        slot: usize,
        payload: Payload,
    ) {
        if self.dead(rank) || self.aborted() {
            return;
        }
        if let Some(rt) = &self.recovery {
            // An arrival from a suspect is proof of life.
            let n = self.schedule.nranks;
            let vrank = virtual_rank(rank, self.ctx.root, n);
            let src = {
                let r = self.ranks[rank].borrow();
                let from = self.schedule.plans[vrank].rounds[r.round].recvs[slot].from;
                self.world[actual_rank(from as usize, self.ctx.root, n)]
            };
            rt.clear_if_suspect(src);
        }
        let done = {
            let mut r = self.ranks[rank].borrow_mut();
            r.life = step(r.life, "recv");
            r.arrived[slot] = Some(payload);
            r.waiting -= 1;
            r.waiting == 0
        };
        if done {
            self.complete_round(eng, rank);
            self.start_round(eng, rank);
        }
    }

    /// Apply the round's arrivals in schedule order, emit its span, and
    /// advance the cursor.
    fn complete_round(self: &Rc<Self>, eng: &mut MultiEngine, rank: usize) {
        let n = self.schedule.nranks;
        let vrank = virtual_rank(rank, self.ctx.root, n);
        let r = &mut *self.ranks[rank].borrow_mut();
        let round = &self.schedule.plans[vrank].rounds[r.round];
        let mut bytes = 0u64;
        for (recv, payload) in round.recvs.iter().zip(r.arrived.drain(..)) {
            #[expect(
                clippy::expect_used,
                reason = "complete_round only runs once waiting hits zero, so every slot is filled"
            )]
            let payload = payload.expect("round completed with a receive slot empty");
            bytes += payload.len() as u64;
            r.state.apply(&recv.what, &payload, self.ctx.reduction);
        }
        r.life = step(r.life, "finish");
        if let Some(t) = &self.trace {
            t.span(SpanRec {
                stage: stages::COLL_ROUND,
                track: coll_track(self.world[rank]),
                start: self.abs(r.round_start),
                end: self.abs(eng.now()),
                bytes,
                msg: (r.round + 1) as u64,
            });
        }
        r.round += 1;
    }

    /// Arm the recv deadline for `rank`'s round `round_idx` (no-op when
    /// no recovery policy is installed).
    fn arm_deadline(
        self: &Rc<Self>,
        eng: &mut MultiEngine,
        rank: usize,
        round_idx: usize,
        rearms: u32,
    ) {
        let Some(rt) = &self.recovery else { return };
        let delay = SimDuration::from_micros_f64(rt.policy.deadline_us);
        let this = Rc::clone(self);
        eng.schedule_in(delay, move |e| {
            this.check_deadline(e, rank, round_idx, rearms);
        });
    }

    /// The recv deadline fired: if `rank` is still stuck in
    /// `round_idx`, every source it is missing becomes a suspect, with
    /// a probe verdict scheduled one backoff later.
    fn check_deadline(
        self: &Rc<Self>,
        eng: &mut MultiEngine,
        rank: usize,
        round_idx: usize,
        rearms: u32,
    ) {
        let Some(rt) = &self.recovery else { return };
        if rt.aborted.get() || self.dead(rank) {
            return;
        }
        let n = self.schedule.nranks;
        let vrank = virtual_rank(rank, self.ctx.root, n);
        let missing: Vec<usize> = {
            let r = self.ranks[rank].borrow();
            if r.finish.is_some() || r.round != round_idx || r.waiting == 0 {
                return; // the round completed in time
            }
            self.schedule.plans[vrank].rounds[round_idx]
                .recvs
                .iter()
                .enumerate()
                .filter(|(slot, _)| r.arrived[*slot].is_none())
                .map(|(_, recv)| self.world[actual_rank(recv.from as usize, self.ctx.root, n)])
                .collect()
        };
        for s in missing {
            let state = rt.member.borrow()[s];
            if state == Membership::Active {
                rt.member.borrow_mut()[s] = step_member(state, "deadline");
                if let Some(t) = &self.trace {
                    t.instant(
                        stages::COLL_SUSPECT,
                        coll_track(s),
                        self.abs(eng.now()),
                        0,
                        s as u64,
                    );
                }
            }
            if rt.member.borrow()[s] == Membership::Suspect {
                let delay = SimDuration::from_micros_f64(rt.policy.backoff_us);
                let this = Rc::clone(self);
                eng.schedule_in(delay, move |e| this.check_eviction(e, s));
            }
        }
        if rearms < MAX_DEADLINE_REARMS {
            self.arm_deadline(eng, rank, round_idx, rearms + 1);
        }
    }

    /// Probe verdict for suspect world rank `s`: a live rank acks and
    /// is cleared; a dead one is evicted, ending the epoch. One
    /// eviction per epoch — later verdicts re-run after the replan.
    fn check_eviction(self: &Rc<Self>, eng: &mut MultiEngine, s: usize) {
        let Some(rt) = &self.recovery else { return };
        let state = rt.member.borrow()[s];
        if state != Membership::Suspect {
            return; // already cleared (or evicted by an earlier verdict)
        }
        if self.killed.borrow()[s] {
            if rt.aborted.get() {
                return; // one eviction per epoch
            }
            rt.member.borrow_mut()[s] = step_member(state, "evict");
            rt.evicted.set(Some(s));
            rt.evict_at_us
                .set(self.base.as_micros_f64() + eng.now().as_micros_f64());
            rt.aborted.set(true);
            if let Some(t) = &self.trace {
                t.instant(
                    stages::COLL_EVICT,
                    coll_track(s),
                    self.abs(eng.now()),
                    0,
                    s as u64,
                );
            }
        } else {
            rt.clear_if_suspect(s);
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
    fn from_options(opts: &SimOptions) -> FaultSet {
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
    schedule: &Rc<Schedule>,
    ctx: ExecCtx,
    contributions: &[&[u8]],
    trace: &Option<SharedSink>,
    base_us: f64,
    world: Vec<usize>,
    killed: &Rc<RefCell<Vec<bool>>>,
    member: &Rc<RefCell<Vec<Membership>>>,
    policy: Option<RecoveryPolicy>,
    faults: &FaultSet,
) -> EpochOutcome {
    let m = schedule.nranks;
    let mut eng = MultiNet::engine(spec.clone(), m);
    if let Some(t) = trace {
        eng.set_trace_sink(Rc::clone(t));
    }
    let sess = MultiSession::new(profile.clone(), m);
    for &(w, extra_us) in &faults.degrades {
        if let Some(g) = world.iter().position(|&x| x == w) {
            sess.set_rank_overhead_us(g, extra_us);
        }
    }
    if !faults.windows.is_empty() {
        // Window clocks are whole-run absolute; the epoch engine starts
        // at zero, so shift them back by the time already elapsed.
        sess.set_degrade_windows(
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
            killed.borrow_mut()[w] = true;
        } else if world.contains(&w) {
            let killed = Rc::clone(killed);
            eng.schedule_in(SimDuration::from_micros_f64(at_us - base_us), move |_| {
                killed.borrow_mut()[w] = true;
            });
        }
    }
    let driver = Rc::new(Driver {
        schedule: Rc::clone(schedule),
        ctx,
        sess,
        ranks: (0..m)
            .map(|g| {
                let vrank = virtual_rank(g, ctx.root, m);
                RefCell::new(RankRun {
                    state: RankState::init(schedule.op, m, vrank, contributions[g]),
                    life: CollRound::initial(),
                    round: 0,
                    waiting: 0,
                    arrived: Vec::new(),
                    round_start: SimTime::ZERO,
                    finish: None,
                })
            })
            .collect(),
        trace: trace.clone(),
        world,
        killed: Rc::clone(killed),
        base: SimDuration::from_micros_f64(base_us),
        recovery: policy.map(|policy| RecoveryRt {
            policy,
            member: Rc::clone(member),
            aborted: Cell::new(false),
            evicted: Cell::new(None),
            evict_at_us: Cell::new(0.0),
            suspects_cleared: Cell::new(0),
        }),
    });
    for g in 0..m {
        if driver.dead(g) {
            continue; // dead at epoch start: never runs, its peers stall
        }
        let d = Rc::clone(&driver);
        eng.schedule_at(SimTime::ZERO, move |e| d.start_round(e, g));
    }
    eng.run();
    let events = eng.events_executed();
    let rt = driver.recovery.as_ref();
    let aborted = rt.is_some_and(|rt| rt.aborted.get());
    debug_assert!(
        aborted || (0..m).any(|g| driver.dead(g)) || !driver.sess.has_unmatched(),
        "fault-free {:?} epoch over {m} ranks left unmatched sends or receives",
        schedule.op
    );
    let mut finished = Vec::with_capacity(m);
    let mut bcast_hold = Vec::with_capacity(m);
    for g in 0..m {
        let mut r = driver.ranks[g].borrow_mut();
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
    EpochOutcome {
        events,
        aborted,
        evicted: rt.and_then(|rt| rt.evicted.get()),
        evict_at_us: rt.map_or(0.0, |rt| rt.evict_at_us.get()),
        cleared: rt.map_or(0, |rt| rt.suspects_cleared.get()),
        finished,
        bcast_hold,
    }
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

    let faults = FaultSet::from_options(opts);
    let killed = Rc::new(RefCell::new(vec![false; n]));
    let member = Rc::new(RefCell::new(vec![Membership::initial(); n]));
    let mut alive = vec![true; n];
    let mut bcast_hold: Vec<Option<Vec<u8>>> = vec![None; n];
    if schedule.op == CollOp::Bcast {
        bcast_hold[ctx.root] = Some(contributions[ctx.root].clone());
    }
    let mut root_world = ctx.root;
    let mut cur_schedule = Rc::new(schedule.clone());
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
            &cur_schedule,
            gctx,
            &contribs,
            &opts.trace,
            base_us,
            cur_world.clone(),
            &killed,
            &member,
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
        let algorithm = if build(schedule.op, cur_schedule.algorithm, m).is_ok() {
            cur_schedule.algorithm
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
        let replanned = build(schedule.op, algorithm, m)
            .expect("replanned schedule builds for the survivor group");
        cur_schedule = Rc::new(replanned);
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
        // `run_epoch` debug-asserts the drained session; this sweeps the
        // whole planner matrix through it.
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
    #[cfg(debug_assertions)]
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
    fn arrivals_are_held_by_reference_and_released_once_applied() {
        // Linear reduce over 3 ranks: the root's only round receives from
        // both peers, so the first arrival has to wait in `arrived`.
        let n = 3;
        let schedule = Rc::new(build(CollOp::Reduce, Algorithm::Linear, n).unwrap());
        let mut eng = MultiNet::engine(hwmodel::presets::pcs_ga620(), n);
        let driver = Rc::new(Driver {
            schedule: Rc::clone(&schedule),
            ctx: sum_ctx(),
            sess: MultiSession::new(mpsim::libs::mpich(Default::default()).profile, n),
            ranks: u64s(n)
                .iter()
                .enumerate()
                .map(|(g, c)| {
                    RefCell::new(RankRun {
                        state: RankState::init(schedule.op, n, g, c),
                        life: CollRound::initial(),
                        round: 0,
                        waiting: 0,
                        arrived: Vec::new(),
                        round_start: SimTime::ZERO,
                        finish: None,
                    })
                })
                .collect(),
            trace: None,
            world: (0..n).collect(),
            killed: Rc::new(RefCell::new(vec![false; n])),
            base: SimDuration::ZERO,
            recovery: None,
        });
        driver.start_round(&mut eng, 0);
        let first: Payload = Rc::new(5u64.to_le_bytes().to_vec());
        driver.on_arrival(&mut eng, 0, 0, Rc::clone(&first));
        {
            let root = driver.ranks[0].borrow();
            let held = root.arrived[0].as_ref().expect("the slot is filled");
            assert!(Rc::ptr_eq(held, &first), "the arrival was copied");
        }
        assert_eq!(Rc::strong_count(&first), 2);
        driver.on_arrival(&mut eng, 0, 1, Rc::new(7u64.to_le_bytes().to_vec()));
        // The round completed: `complete_round` folded the shared buffer
        // in (1 + 5 + 7) and let go of it.
        assert_eq!(Rc::strong_count(&first), 1);
        let root = driver.ranks[0].borrow();
        assert_eq!(root.round, 1);
        assert_eq!(root.state.payload(&SendWhat::Acc), 13u64.to_le_bytes());
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
