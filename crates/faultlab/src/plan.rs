//! The fault plan: a declarative, seeded description of what goes wrong.
//!
//! A plan is deliberately a plain-old-data struct with a flat `key=value`
//! text grammar (`FaultPlan::parse` / `Display` round-trip) so a chaos
//! scenario can ride a command line (`netpipe_cli --faults PLAN`), a CI
//! step, or a test, and mean exactly the same thing everywhere.

use std::fmt;
use std::time::Duration;

use crate::retry::{RetryPolicy, SweepPolicy};

/// A timed window during which the wire runs at a fraction of its rate
/// (cable degradation, duplex mismatch, a congested switch port).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeWindow {
    /// Window start, microseconds of simulated time.
    pub start_us: f64,
    /// Window end, microseconds of simulated time.
    pub end_us: f64,
    /// Remaining fraction of the nominal wire rate in `(0, 1]`.
    pub factor: f64,
}

impl DegradeWindow {
    /// Is `now_us` inside the window?
    pub fn contains(&self, now_us: f64) -> bool {
        now_us >= self.start_us && now_us < self.end_us
    }
}

/// A timed network partition: while active, frames between the two rank
/// groups are silently dropped (a blackhole, not a reset — exactly what
/// a misprogrammed switch ACL does). Used by the byte-level chaos proxy;
/// the clock is the proxy's virtual per-connection frame clock.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// One side of the cut.
    pub(crate) a: Vec<usize>,
    /// The other side of the cut.
    pub(crate) b: Vec<usize>,
    /// Window start, microseconds.
    pub(crate) start_us: f64,
    /// Window end, microseconds.
    pub(crate) end_us: f64,
}

impl PartitionWindow {
    /// Is the partition active at `now_us`?
    pub(crate) fn active(&self, now_us: f64) -> bool {
        now_us >= self.start_us && now_us < self.end_us
    }

    /// Does a frame between ranks `x` and `y` cross the cut?
    pub(crate) fn crosses(&self, x: usize, y: usize) -> bool {
        (self.a.contains(&x) && self.b.contains(&y)) || (self.a.contains(&y) && self.b.contains(&x))
    }
}

/// A scheduled rank death: rank `rank` stops participating at simulated
/// time `at_us`. Unlike the wire faults, a kill is an *endpoint* fault —
/// it never perturbs surviving traffic, so plans whose only clauses are
/// kills still count as lossless on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RankKill {
    /// The rank that dies.
    pub rank: usize,
    /// Simulated time of death, microseconds.
    pub at_us: f64,
}

/// A complete fault-injection and resilience scenario.
///
/// The sim-side knobs (`loss` … `max_retrans`) drive [`crate::FaultLottery`]
/// and the TCP retransmission model; the real-side knobs (`io_deadline`,
/// `retry`, `sweep`, `kill_after`, `kill_listener`) configure socket
/// deadlines, reconnect backoff, per-point sweep budgets, and the
/// kill-the-peer chaos hooks.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed: same seed + same plan ⇒ byte-identical runs.
    pub seed: u64,
    /// Per-segment drop probability in `[0, 1)`.
    pub loss: f64,
    /// Per-segment duplication probability in `[0, 1)` (the duplicate is
    /// discarded by the receiver but still burns wire and receiver time).
    pub dup: f64,
    /// Per-segment reorder probability in `[0, 1)`: the segment is held
    /// back long enough to land behind its successor.
    pub reorder: f64,
    /// Maximum uniform extra delay per segment, microseconds.
    pub jitter_us: f64,
    /// Timed link-degradation windows.
    pub degrade: Vec<DegradeWindow>,
    /// Scheduled rank deaths (`kill-rank=R@T`), at most one per rank.
    pub kills: Vec<RankKill>,
    /// TCP retransmission timeout, microseconds (Linux 2.4's 200 ms
    /// minimum RTO by default — the cliff behind the paper's
    /// large-message dropouts).
    pub rto_us: f64,
    /// Retransmissions of one segment before the connection is declared
    /// dead (the "MVICH run that simply dies").
    pub max_retrans: u32,
    /// Real mode: per-operation socket deadline.
    pub io_deadline: Duration,
    /// Real mode: reconnect/retry backoff policy.
    pub retry: RetryPolicy,
    /// Sweep budget: per-point retries and continue-on-failure.
    pub sweep: SweepPolicy,
    /// Real-mode chaos: the echo peer drops the connection after this
    /// many messages (each accepted connection gets a fresh count).
    pub kill_after: Option<u64>,
    /// Real-mode chaos: after the first kill the peer also stops
    /// accepting, so reconnects fail and the sweep tail degrades.
    pub kill_listener: bool,
    /// Byte-level chaos (proxy): per-frame probability of flipping one
    /// seeded bit anywhere in the frame.
    pub corrupt: f64,
    /// Byte-level chaos (proxy): per-frame probability of forwarding
    /// only a seeded prefix and then dropping the connection — the
    /// receiver sees a mid-frame EOF.
    pub trunc: f64,
    /// Byte-level chaos (proxy): how long a stalled frame is held,
    /// microseconds.
    pub stall_us: f64,
    /// Byte-level chaos (proxy): per-frame probability of stalling for
    /// [`FaultPlan::stall_us`] before forwarding.
    pub stall_rate: f64,
    /// Byte-level chaos (proxy): timed blackhole windows between rank
    /// groups (`partition=0+1|2+3@1ms..4ms`, repeatable).
    pub partitions: Vec<PartitionWindow>,
    /// Byte-level chaos (proxy): per-frame probability of holding a
    /// frame back so it lands *behind* its successor — a whole-frame
    /// reorder, legal for TCP proxies but fatal for FIFO assumptions.
    pub reorder_frame: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            jitter_us: 0.0,
            degrade: Vec::new(),
            kills: Vec::new(),
            rto_us: 200_000.0,
            max_retrans: 6,
            io_deadline: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            sweep: SweepPolicy::default(),
            kill_after: None,
            kill_listener: false,
            corrupt: 0.0,
            trunc: 0.0,
            stall_us: 0.0,
            stall_rate: 0.0,
            partitions: Vec::new(),
            reorder_frame: 0.0,
        }
    }
}

/// A plan string that did not parse, with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The token that failed.
    pub(crate) token: String,
    /// What was wrong with it.
    pub(crate) reason: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault-plan token `{}`: {}", self.token, self.reason)
    }
}

impl std::error::Error for PlanError {}

fn err(token: &str, reason: impl Into<String>) -> PlanError {
    PlanError {
        token: token.to_string(),
        reason: reason.into(),
    }
}

/// Parse `12us` / `3ms` / `2s` / bare microseconds into microseconds.
fn parse_us(token: &str, v: &str) -> Result<f64, PlanError> {
    let (num, scale) = if let Some(n) = v.strip_suffix("us") {
        (n, 1.0)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1e3)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1e6)
    } else {
        (v, 1.0)
    };
    let x: f64 = num
        .parse()
        .map_err(|_| err(token, "expected a duration like 50us, 3ms or 2s"))?;
    // Checked after scaling: `1e303s` is finite, its microseconds not.
    let us = x * scale;
    if !us.is_finite() || us < 0.0 {
        return Err(err(token, "duration must be finite and non-negative"));
    }
    Ok(us)
}

fn parse_prob(token: &str, v: &str) -> Result<f64, PlanError> {
    let p: f64 = v
        .parse()
        .map_err(|_| err(token, "expected a probability in [0, 1]"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(err(token, "probability must be in [0, 1]"));
    }
    Ok(p)
}

impl FaultPlan {
    /// Parse the flat `key=value[,key=value...]` grammar.
    ///
    /// Keys: `seed=U64`, `loss=P`, `dup=P`, `reorder=P`, `jitter=DUR`,
    /// `degrade=DUR..DUR@FACTOR` (repeatable), `rto=DUR`, `retrans=N`,
    /// `deadline=DUR`, `retries=N` (per-point sweep budget),
    /// `backoff=DUR` (reconnect base delay), `kill-rank=R@TIME`
    /// (repeatable, at most one clause per rank), `kill-after=N`,
    /// `kill-listener`, plus the byte-level proxy clauses `corrupt=P`,
    /// `truncate=P`, `stall=DUR@P`, `partition=0+1|2+3@DUR..DUR`
    /// (repeatable) and `reorder-frame[=P]` (bare means every frame).
    /// Durations take `us`/`ms`/`s` suffixes (bare numbers are
    /// microseconds). An empty string is the lossless default plan.
    pub fn parse(s: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        for token in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = match token.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (token, ""),
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| err(token, "expected an unsigned integer seed"))?;
                }
                "loss" => plan.loss = parse_prob(token, value)?,
                "dup" => plan.dup = parse_prob(token, value)?,
                "reorder" => plan.reorder = parse_prob(token, value)?,
                "jitter" => plan.jitter_us = parse_us(token, value)?,
                "rto" => {
                    plan.rto_us = parse_us(token, value)?;
                    if plan.rto_us <= 0.0 {
                        return Err(err(token, "rto must be positive"));
                    }
                }
                "retrans" => {
                    plan.max_retrans = value
                        .parse()
                        .map_err(|_| err(token, "expected a retransmission count"))?;
                }
                "degrade" => {
                    let (range, factor) = value
                        .split_once('@')
                        .ok_or_else(|| err(token, "expected START..END@FACTOR"))?;
                    let (a, b) = range
                        .split_once("..")
                        .ok_or_else(|| err(token, "expected START..END@FACTOR"))?;
                    let start_us = parse_us(token, a)?;
                    let end_us = parse_us(token, b)?;
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| err(token, "factor must be a number in (0, 1]"))?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(err(token, "factor must be in (0, 1]"));
                    }
                    if end_us <= start_us {
                        return Err(err(token, "window end must be after its start"));
                    }
                    plan.degrade.push(DegradeWindow {
                        start_us,
                        end_us,
                        factor,
                    });
                }
                "deadline" => {
                    plan.io_deadline = Duration::from_micros(parse_us(token, value)? as u64);
                    if plan.io_deadline.is_zero() {
                        return Err(err(token, "deadline must be positive"));
                    }
                }
                "retries" => {
                    plan.sweep.point_retries = value
                        .parse()
                        .map_err(|_| err(token, "expected a per-point retry count"))?;
                }
                "backoff" => {
                    plan.retry.base = Duration::from_micros(parse_us(token, value)? as u64);
                }
                "kill-rank" => {
                    let (r, t) = value
                        .split_once('@')
                        .ok_or_else(|| err(token, "expected RANK@TIME, like kill-rank=3@500us"))?;
                    let rank: usize = r
                        .trim()
                        .parse()
                        .map_err(|_| err(token, "expected an unsigned rank number"))?;
                    let at_us = parse_us(token, t.trim())?;
                    if plan.kills.iter().any(|k| k.rank == rank) {
                        return Err(err(
                            token,
                            format!("rank {rank} is already scheduled to die — one kill per rank"),
                        ));
                    }
                    plan.kills.push(RankKill { rank, at_us });
                }
                "kill-after" => {
                    plan.kill_after = Some(
                        value
                            .parse()
                            .map_err(|_| err(token, "expected a message count"))?,
                    );
                }
                "kill-listener" => plan.kill_listener = true,
                "corrupt" => plan.corrupt = parse_prob(token, value)?,
                "truncate" => plan.trunc = parse_prob(token, value)?,
                "stall" => {
                    let (dur, rate) = value
                        .split_once('@')
                        .ok_or_else(|| err(token, "expected DUR@RATE, like stall=5ms@0.01"))?;
                    plan.stall_us = parse_us(token, dur.trim())?;
                    plan.stall_rate = parse_prob(token, rate.trim())?;
                    if plan.stall_us <= 0.0 && plan.stall_rate > 0.0 {
                        return Err(err(token, "stall duration must be positive"));
                    }
                }
                "partition" => {
                    let (groups, range) = value
                        .split_once('@')
                        .ok_or_else(|| err(token, "expected A+A|B+B@START..END"))?;
                    let (ga, gb) = groups
                        .split_once('|')
                        .ok_or_else(|| err(token, "expected two rank groups split by `|`"))?;
                    let parse_group = |g: &str| -> Result<Vec<usize>, PlanError> {
                        let ranks: Vec<usize> = g
                            .split('+')
                            .map(|r| {
                                r.trim()
                                    .parse()
                                    .map_err(|_| err(token, "ranks must be unsigned integers"))
                            })
                            .collect::<Result<_, _>>()?;
                        if ranks.is_empty() {
                            return Err(err(token, "each side of the cut needs a rank"));
                        }
                        Ok(ranks)
                    };
                    let a = parse_group(ga)?;
                    let b = parse_group(gb)?;
                    if a.iter().any(|r| b.contains(r)) {
                        return Err(err(token, "a rank cannot sit on both sides of the cut"));
                    }
                    let (s, e) = range
                        .split_once("..")
                        .ok_or_else(|| err(token, "expected a START..END window"))?;
                    let start_us = parse_us(token, s.trim())?;
                    let end_us = parse_us(token, e.trim())?;
                    if end_us <= start_us {
                        return Err(err(token, "window end must be after its start"));
                    }
                    plan.partitions.push(PartitionWindow {
                        a,
                        b,
                        start_us,
                        end_us,
                    });
                }
                "reorder-frame" => {
                    plan.reorder_frame = if value.is_empty() {
                        1.0
                    } else {
                        parse_prob(token, value)?
                    };
                }
                _ => return Err(err(token, "unknown key")),
            }
        }
        Ok(plan)
    }

    /// Does the plan inject nothing on the wire? A lossless plan leaves
    /// a simulated run *byte-identical* to one without any plan
    /// installed (no RNG draws, no extra trace records, no timing
    /// perturbation) — an invariant the workspace tests enforce.
    pub fn is_lossless(&self) -> bool {
        self.loss == 0.0
            && self.dup == 0.0
            && self.reorder == 0.0
            && self.jitter_us == 0.0
            && self.degrade.is_empty()
    }

    /// Does the plan ask for byte-level wire chaos? These clauses only
    /// take effect through [`crate::proxy::ChaosProxy`]; the sim lottery
    /// and the real-mode endpoint knobs ignore them, so they do not
    /// factor into [`FaultPlan::is_lossless`].
    pub fn has_byte_faults(&self) -> bool {
        self.corrupt > 0.0
            || self.trunc > 0.0
            || self.stall_rate > 0.0
            || !self.partitions.is_empty()
            || self.reorder_frame > 0.0
    }
}

/// Prints every knob that differs from [`FaultPlan::default`] (TCP's
/// `rto`/`retrans` always once the wire is lossy), so `parse` of the
/// text gives back an equal plan.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = FaultPlan::default();
        write!(f, "seed={}", self.seed)?;
        if self.loss > 0.0 {
            write!(f, ",loss={}", self.loss)?;
        }
        if self.dup > 0.0 {
            write!(f, ",dup={}", self.dup)?;
        }
        if self.reorder > 0.0 {
            write!(f, ",reorder={}", self.reorder)?;
        }
        if self.jitter_us > 0.0 {
            write!(f, ",jitter={}us", self.jitter_us)?;
        }
        for w in &self.degrade {
            write!(f, ",degrade={}us..{}us@{}", w.start_us, w.end_us, w.factor)?;
        }
        if !self.is_lossless() || self.rto_us != d.rto_us || self.max_retrans != d.max_retrans {
            write!(f, ",rto={}us,retrans={}", self.rto_us, self.max_retrans)?;
        }
        if self.io_deadline != d.io_deadline {
            write!(f, ",deadline={}us", self.io_deadline.as_micros())?;
        }
        if self.sweep.point_retries != d.sweep.point_retries {
            write!(f, ",retries={}", self.sweep.point_retries)?;
        }
        if self.retry.base != d.retry.base {
            write!(f, ",backoff={}us", self.retry.base.as_micros())?;
        }
        for k in &self.kills {
            write!(f, ",kill-rank={}@{}us", k.rank, k.at_us)?;
        }
        if let Some(k) = self.kill_after {
            write!(f, ",kill-after={k}")?;
        }
        if self.kill_listener {
            write!(f, ",kill-listener")?;
        }
        if self.corrupt > 0.0 {
            write!(f, ",corrupt={}", self.corrupt)?;
        }
        if self.trunc > 0.0 {
            write!(f, ",truncate={}", self.trunc)?;
        }
        if self.stall_rate > 0.0 || self.stall_us > 0.0 {
            write!(f, ",stall={}us@{}", self.stall_us, self.stall_rate)?;
        }
        for w in &self.partitions {
            let join = |g: &[usize]| {
                g.iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            };
            write!(
                f,
                ",partition={}|{}@{}us..{}us",
                join(&w.a),
                join(&w.b),
                w.start_us,
                w.end_us
            )?;
        }
        if self.reorder_frame > 0.0 {
            write!(f, ",reorder-frame={}", self.reorder_frame)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_lossless_default() {
        let p = FaultPlan::parse("").expect("empty parses");
        assert_eq!(p, FaultPlan::default());
        assert!(p.is_lossless());
    }

    #[test]
    fn full_grammar_round_trips() {
        let s = "seed=42,loss=0.01,dup=0.005,reorder=0.02,jitter=50us,\
                 degrade=1ms..4ms@0.25,rto=2ms,retrans=3,kill-after=10,kill-listener";
        let p = FaultPlan::parse(s).expect("parses");
        assert_eq!(p.seed, 42);
        assert_eq!(p.loss, 0.01);
        assert_eq!(p.jitter_us, 50.0);
        assert_eq!(p.degrade.len(), 1);
        assert_eq!(p.degrade[0].start_us, 1000.0);
        assert_eq!(p.degrade[0].end_us, 4000.0);
        assert_eq!(p.rto_us, 2000.0);
        assert_eq!(p.max_retrans, 3);
        assert_eq!(p.kill_after, Some(10));
        assert!(p.kill_listener);
        // Display → parse is the identity.
        let again = FaultPlan::parse(&p.to_string()).expect("round-trip parses");
        assert_eq!(p, again);
    }

    #[test]
    fn duration_suffixes() {
        let p = FaultPlan::parse("jitter=2ms").expect("ms");
        assert_eq!(p.jitter_us, 2000.0);
        let p = FaultPlan::parse("jitter=1s").expect("s");
        assert_eq!(p.jitter_us, 1e6);
        let p = FaultPlan::parse("jitter=7").expect("bare us");
        assert_eq!(p.jitter_us, 7.0);
    }

    #[test]
    fn real_mode_knobs() {
        let p = FaultPlan::parse("deadline=250ms,retries=4,backoff=10ms").expect("parses");
        assert_eq!(p.io_deadline, Duration::from_millis(250));
        assert_eq!(p.sweep.point_retries, 4);
        assert_eq!(p.retry.base, Duration::from_millis(10));
    }

    #[test]
    fn bad_tokens_are_rejected_with_context() {
        for bad in [
            "loss=1.5",
            "loss=x",
            "seed=-1",
            "degrade=5ms..1ms@0.5",
            "degrade=1ms..2ms@0",
            "degrade=1ms..2ms@1.5",
            "degrade=broken",
            "jitter=-3us",
            "rto=0",
            "deadline=0",
            "nonsense=1",
            "kill-rank=3",
            "kill-rank=x@1ms",
            "kill-rank=3@never",
            "corrupt=2",
            "truncate=-0.1",
            "stall=5ms",
            "stall=0@0.5",
            "partition=0+1@1ms..2ms",
            "partition=0|1@5ms..1ms",
            "partition=0+1|1+2@1ms..2ms",
            "partition=|1@1ms..2ms",
            "partition=a|b@1ms..2ms",
            "reorder-frame=1.5",
        ] {
            let e = FaultPlan::parse(bad).expect_err(bad);
            assert!(e.to_string().contains('`'), "{e}");
        }
    }

    #[test]
    fn kill_rank_clauses_repeat_and_round_trip() {
        let p = FaultPlan::parse("seed=7,kill-rank=3@500us,kill-rank=11@2ms").expect("parses");
        assert_eq!(
            p.kills,
            vec![
                RankKill {
                    rank: 3,
                    at_us: 500.0
                },
                RankKill {
                    rank: 11,
                    at_us: 2000.0
                },
            ]
        );
        // Kills are endpoint faults: the wire is still lossless.
        assert!(p.is_lossless());
        let again = FaultPlan::parse(&p.to_string()).expect("round-trip parses");
        assert_eq!(p, again);
    }

    #[test]
    fn duplicate_rank_kill_is_a_typed_parse_error() {
        let e = FaultPlan::parse("kill-rank=3@1ms,kill-rank=3@2ms").expect_err("must reject");
        assert_eq!(e.token, "kill-rank=3@2ms");
        assert!(e.reason.contains("one kill per rank"), "{e}");
    }

    #[test]
    fn byte_fault_clauses_parse_and_round_trip() {
        let s = "seed=9,corrupt=0.02,truncate=0.01,stall=3ms@0.05,\
                 partition=0+1|2+3@1ms..4ms,partition=0|3@6ms..7ms,reorder-frame=0.1";
        let p = FaultPlan::parse(s).expect("parses");
        assert_eq!(p.corrupt, 0.02);
        assert_eq!(p.trunc, 0.01);
        assert_eq!(p.stall_us, 3000.0);
        assert_eq!(p.stall_rate, 0.05);
        assert_eq!(p.partitions.len(), 2);
        assert_eq!(p.partitions[0].a, vec![0, 1]);
        assert_eq!(p.partitions[0].b, vec![2, 3]);
        assert_eq!(p.partitions[0].start_us, 1000.0);
        assert_eq!(p.partitions[0].end_us, 4000.0);
        assert_eq!(p.reorder_frame, 0.1);
        assert!(p.has_byte_faults());
        // Byte faults ride the proxy, not the sim wire: still lossless.
        assert!(p.is_lossless());
        let again = FaultPlan::parse(&p.to_string()).expect("round-trip parses");
        assert_eq!(p, again);
    }

    #[test]
    fn bare_reorder_frame_means_every_frame() {
        let p = FaultPlan::parse("reorder-frame").expect("parses");
        assert_eq!(p.reorder_frame, 1.0);
        assert!(p.has_byte_faults());
        assert!(!FaultPlan::parse("seed=5,kill-after=3")
            .expect("ok")
            .has_byte_faults());
    }

    #[test]
    fn partition_windows_know_their_cut_and_clock() {
        let w = PartitionWindow {
            a: vec![0, 1],
            b: vec![2, 3],
            start_us: 100.0,
            end_us: 200.0,
        };
        assert!(w.crosses(0, 2));
        assert!(w.crosses(3, 1), "cut is symmetric");
        assert!(!w.crosses(0, 1), "same side never crosses");
        assert!(!w.crosses(0, 7), "outsiders pass");
        assert!(!w.active(99.9));
        assert!(w.active(100.0));
        assert!(!w.active(200.0));
    }

    #[test]
    fn degrade_window_containment() {
        let w = DegradeWindow {
            start_us: 10.0,
            end_us: 20.0,
            factor: 0.5,
        };
        assert!(!w.contains(9.9));
        assert!(w.contains(10.0));
        assert!(w.contains(19.9));
        assert!(!w.contains(20.0));
    }

    #[test]
    fn lossless_detection_per_knob() {
        for s in [
            "loss=0.1",
            "dup=0.1",
            "reorder=0.1",
            "jitter=1us",
            "degrade=0..1ms@0.5",
        ] {
            assert!(!FaultPlan::parse(s).expect(s).is_lossless(), "{s}");
        }
        assert!(FaultPlan::parse("seed=9,retries=3")
            .expect("ok")
            .is_lossless());
    }
}
