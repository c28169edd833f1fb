//! The deterministic per-segment fault decision engine.

use simcore::SimRng;

use crate::counters::FaultCounters;
use crate::plan::FaultPlan;

/// What happens to one segment crossing the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegFault {
    /// The segment arrives, possibly late, possibly twice.
    Deliver {
        /// Extra one-way *latency* in microseconds (jitter and reorder
        /// hold-back): delays this segment without occupying the link.
        extra_us: f64,
        /// Extra wire *occupancy* in microseconds (degradation window:
        /// the link streams slower, so the segment holds it longer and
        /// every later segment queues behind it).
        slow_us: f64,
        /// A duplicate copy also crosses the wire (burning wire and
        /// receiver time) before being discarded by the receiver.
        duplicate: bool,
    },
    /// The segment is lost; the transport's recovery (retransmission
    /// timeout) kicks in.
    Drop,
}

/// Seeded decision engine: a [`FaultPlan`] plus the RNG state and event
/// counters for one world.
///
/// Decisions depend only on the plan, the seed and the *order of calls*
/// — never on wall time or map iteration — so a simulated run under a
/// plan is exactly reproducible. A lossless plan short-circuits without
/// drawing from the RNG at all, which keeps such a run byte-identical
/// to one with no lottery installed.
#[derive(Debug, Clone)]
pub struct FaultLottery {
    plan: FaultPlan,
    rng: SimRng,
    /// Event counts so far.
    pub counters: FaultCounters,
}

impl FaultLottery {
    /// Build the engine for `plan` (seeded from `plan.seed`).
    pub fn new(plan: FaultPlan) -> FaultLottery {
        let rng = SimRng::new(plan.seed);
        FaultLottery {
            plan,
            rng,
            counters: FaultCounters::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of a segment entering the wire at `now_us` whose
    /// nominal (fault-free) wire occupancy is `frame_us`.
    pub fn segment(&mut self, now_us: f64, frame_us: f64) -> SegFault {
        if self.plan.is_lossless() {
            return SegFault::Deliver {
                extra_us: 0.0,
                slow_us: 0.0,
                duplicate: false,
            };
        }
        if self.plan.loss > 0.0 && self.rng.next_f64() < self.plan.loss {
            self.counters.dropped += 1;
            return SegFault::Drop;
        }
        // Degradation window: the wire streams at `factor` of its rate,
        // so the segment occupies `frame/factor` instead of `frame`.
        let mut slow_us = 0.0;
        for w in &self.plan.degrade {
            if w.contains(now_us) {
                slow_us = frame_us * (1.0 / w.factor - 1.0);
                break;
            }
        }
        let mut extra_us = 0.0;
        if self.plan.jitter_us > 0.0 {
            extra_us += self.rng.uniform(0.0, self.plan.jitter_us);
        }
        if self.plan.reorder > 0.0 && self.rng.next_f64() < self.plan.reorder {
            // Hold the segment back past its successor's wire slot.
            extra_us += 2.0 * frame_us;
        }
        let duplicate = self.plan.dup > 0.0 && self.rng.next_f64() < self.plan.dup;
        if duplicate {
            self.counters.duplicated += 1;
        }
        if extra_us > 0.0 || slow_us > 0.0 {
            self.counters.delayed += 1;
        }
        SegFault::Deliver {
            extra_us,
            slow_us,
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(s: &str) -> FaultPlan {
        FaultPlan::parse(s).expect("test plan parses")
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || FaultLottery::new(plan("seed=5,loss=0.3,dup=0.2,jitter=10us"));
        let (mut a, mut b) = (mk(), mk());
        for i in 0..2000 {
            assert_eq!(a.segment(i as f64, 12.0), b.segment(i as f64, 12.0));
        }
        assert_eq!(a.counters, b.counters);
        assert!(a.counters.dropped > 400, "{:?}", a.counters);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultLottery::new(plan("seed=1,loss=0.5"));
        let mut b = FaultLottery::new(plan("seed=2,loss=0.5"));
        let differs = (0..256).any(|i| a.segment(i as f64, 1.0) != b.segment(i as f64, 1.0));
        assert!(differs);
    }

    #[test]
    fn lossless_plan_never_draws() {
        let mut l = FaultLottery::new(plan("seed=3"));
        for i in 0..100 {
            assert_eq!(
                l.segment(i as f64, 5.0),
                SegFault::Deliver {
                    extra_us: 0.0,
                    slow_us: 0.0,
                    duplicate: false
                }
            );
        }
        assert!(!l.counters.any());
    }

    #[test]
    fn degradation_window_slows_only_inside() {
        let mut l = FaultLottery::new(plan("degrade=100us..200us@0.25"));
        match l.segment(150.0, 8.0) {
            SegFault::Deliver { slow_us, .. } => {
                // 8 us frame at quarter rate: 24 us of extra occupancy.
                assert!((slow_us - 24.0).abs() < 1e-9, "{slow_us}");
            }
            SegFault::Drop => panic!("no loss configured"),
        }
        match l.segment(250.0, 8.0) {
            SegFault::Deliver { slow_us, .. } => assert_eq!(slow_us, 0.0),
            SegFault::Drop => panic!("no loss configured"),
        }
        assert_eq!(l.counters.delayed, 1);
    }

    #[test]
    fn loss_rate_close_to_requested() {
        let mut l = FaultLottery::new(plan("seed=11,loss=0.1"));
        let n = 20_000;
        let drops = (0..n)
            .filter(|&i| l.segment(i as f64, 1.0) == SegFault::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "observed loss {rate}");
    }
}
