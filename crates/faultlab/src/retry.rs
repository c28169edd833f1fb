//! Retry and degradation policies: bounded exponential backoff for real
//! sockets, per-point budgets for measurement sweeps.

use std::time::Duration;

/// Bounded exponential backoff.
///
/// Attempt `k` (0-based) sleeps `min(base * factor^k, cap)`; after
/// `max_attempts` failed attempts the operation gives up. The defaults
/// (4 attempts, 50 ms base, ×2, 1 s cap) keep a dead peer from stalling
/// a sweep for more than a couple of seconds while still riding out a
/// restarting one.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Multiplier per subsequent attempt.
    pub factor: f64,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            factor: 2.0,
            cap: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep after failed attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.factor.powi(attempt.min(62) as i32);
        let nanos = self.base.as_secs_f64() * exp;
        // A saturating conversion: overflow clamps at the cap.
        if !nanos.is_finite() || nanos >= self.cap.as_secs_f64() {
            self.cap
        } else {
            Duration::from_secs_f64(nanos)
        }
    }

    /// Run `op` up to `max_attempts` times, sleeping the backoff between
    /// attempts. Returns the first success or the last error.
    #[expect(
        clippy::expect_used,
        reason = "attempts >= 1, so the loop body ran and set last_err"
    )]
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last_err = Some(e);
                    if attempt + 1 < attempts {
                        std::thread::sleep(self.backoff(attempt));
                    }
                }
            }
        }
        Err(last_err.expect("retry loop ran at least once"))
    }
}

/// Per-point budget for a measurement sweep (graceful degradation).
///
/// A failing size point is retried up to `point_retries` times (with a
/// driver `recover()` between tries); a point that then succeeds is
/// marked *degraded*, one that does not is marked *failed*, and — when
/// `continue_on_failure` — the sweep carries on and emits a partial,
/// annotated report instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPolicy {
    /// Extra attempts per failing point.
    pub point_retries: u32,
    /// Keep sweeping past a failed point (partial report) instead of
    /// propagating the error.
    pub continue_on_failure: bool,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy {
            point_retries: 2,
            continue_on_failure: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(10),
            factor: 2.0,
            cap: Duration::from_millis(100),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(5), Duration::from_millis(100));
        assert_eq!(p.backoff(62), Duration::from_millis(100));
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(100));
    }

    #[test]
    fn run_retries_until_success() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_micros(1),
            factor: 1.0,
            cap: Duration::from_micros(1),
        };
        let mut calls = 0;
        let out: Result<u32, &str> = p.run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err("not yet")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_returns_last_error_when_exhausted() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(1),
            factor: 1.0,
            cap: Duration::from_micros(1),
        };
        let out: Result<(), u32> = p.run(Err);
        assert_eq!(out, Err(2));
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let out: Result<u32, &str> = p.run(|_| Ok(7));
        assert_eq!(out, Ok(7));
    }
}
