//! The measurement loop: run a [`Driver`] over a size schedule and build
//! its latency/throughput signature.
//!
//! With a [`SweepPolicy`] installed ([`RunOptions::resilience`]) the
//! runner degrades gracefully instead of aborting: a failing point is
//! retried (with [`Driver::recover`] between attempts), then marked
//! [`PointStatus::Degraded`] or [`PointStatus::Failed`], and the sweep
//! carries on — producing a partial, annotated [`Signature`] even when
//! the peer dies halfway through.

use faultlab::SweepPolicy;
use simcore::units::{secs_to_us, throughput_mbps};
use simcore::OnlineStats;

use crate::driver::{Driver, DriverError};
use crate::schedule::{sizes, ScheduleOptions};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Message-size schedule.
    pub schedule: ScheduleOptions,
    /// Trials per point for nondeterministic drivers (NetPIPE repeats
    /// each test "to provide an accurate timing"); the minimum is kept,
    /// the spread recorded. Deterministic (simulated) drivers run once.
    pub trials: u32,
    /// Warm-up round trips before the timed trials (real drivers only).
    pub warmup: u32,
    /// Sizes at or below this bound define the reported latency
    /// (the paper: "round trip time divided by two for messages smaller
    /// than 64 bytes").
    pub latency_bound: u64,
    /// Graceful degradation: per-point retry budget and
    /// continue-on-failure. `None` (the default) keeps the historical
    /// behavior — the first error aborts the sweep.
    pub resilience: Option<SweepPolicy>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            schedule: ScheduleOptions::default(),
            trials: 7,
            warmup: 2,
            latency_bound: 64,
            resilience: None,
        }
    }
}

impl RunOptions {
    /// Fast settings for unit tests.
    pub fn quick(max: u64) -> RunOptions {
        RunOptions {
            schedule: ScheduleOptions::quick(max),
            trials: 3,
            warmup: 1,
            ..Default::default()
        }
    }

    /// Enable graceful degradation under `policy`.
    pub fn with_resilience(mut self, policy: SweepPolicy) -> RunOptions {
        self.resilience = Some(policy);
        self
    }
}

/// Health of one measured point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointStatus {
    /// Measured cleanly.
    Ok,
    /// Measured, but only after `retries` recovery attempt(s).
    Degraded {
        /// Recovery attempts consumed before the point succeeded.
        retries: u32,
    },
    /// Never measured: every attempt failed. `seconds`/`mbps` are zero
    /// and reports annotate the gap instead of plotting it.
    Failed {
        /// Display form of the last error.
        error: String,
    },
}

impl PointStatus {
    /// Did this point produce a usable timing?
    pub(crate) fn is_measured(&self) -> bool {
        !matches!(self, PointStatus::Failed { .. })
    }
}

/// One measured point of a signature.
#[derive(Debug, Clone)]
pub struct Point {
    /// Message size, bytes.
    pub bytes: u64,
    /// One-way transfer time, seconds (best trial).
    pub seconds: f64,
    /// Throughput, decimal megabits per second.
    pub(crate) mbps: f64,
    /// Relative spread across trials (max/min − 1); 0 for deterministic
    /// drivers.
    pub jitter: f64,
    /// Measurement health (always [`PointStatus::Ok`] without a
    /// resilience policy — errors abort the sweep instead).
    pub status: PointStatus,
}

/// A full NetPIPE signature for one driver.
#[derive(Debug, Clone)]
pub struct Signature {
    /// Driver display name.
    pub name: String,
    /// Measured points, in increasing size.
    pub points: Vec<Point>,
    /// Small-message one-way latency, microseconds.
    pub latency_us: f64,
    /// Peak throughput over the curve, Mbps.
    pub max_mbps: f64,
}

impl Signature {
    /// Points that produced a usable timing (everything but `Failed`).
    pub fn measured_points(&self) -> impl Iterator<Item = &Point> {
        self.points.iter().filter(|p| p.status.is_measured())
    }

    /// Number of points that needed retries to complete.
    pub fn degraded_count(&self) -> usize {
        self.points
            .iter()
            .filter(|p| matches!(p.status, PointStatus::Degraded { .. }))
            .count()
    }

    /// Number of points that never completed.
    pub fn failed_count(&self) -> usize {
        self.points
            .iter()
            .filter(|p| matches!(p.status, PointStatus::Failed { .. }))
            .count()
    }

    /// True when any point degraded or failed — the signature is an
    /// annotated partial result, not a clean curve.
    pub fn is_partial(&self) -> bool {
        self.degraded_count() + self.failed_count() > 0
    }

    /// Throughput at the largest measured size, Mbps.
    pub fn final_mbps(&self) -> f64 {
        self.measured_points().last().map_or(0.0, |p| p.mbps)
    }

    /// Linear interpolation of throughput at `bytes` (Mbps), over the
    /// measured points (failed points leave a gap, not a zero).
    pub fn mbps_at(&self, bytes: u64) -> f64 {
        let ps: Vec<&Point> = self.measured_points().collect();
        if ps.is_empty() {
            return 0.0;
        }
        if bytes <= ps[0].bytes {
            return ps[0].mbps;
        }
        for w in ps.windows(2) {
            if bytes <= w[1].bytes {
                let f = (bytes - w[0].bytes) as f64 / (w[1].bytes - w[0].bytes) as f64;
                return w[0].mbps + f * (w[1].mbps - w[0].mbps);
            }
        }
        ps.last().map_or(0.0, |p| p.mbps)
    }

    /// The "dip" around a protocol threshold: throughput just above the
    /// threshold relative to just below (1.0 = no dip; 0.7 = 30 % dip).
    pub fn dip_ratio(&self, threshold: u64) -> f64 {
        let below = self.mbps_at(threshold.saturating_sub(threshold / 16).max(1));
        let above = self.mbps_at(threshold + threshold / 16);
        if below <= 0.0 {
            return 1.0;
        }
        above / below
    }
}

/// Measure one point under the (optional) resilience policy: retry a
/// failing measurement with [`Driver::recover`] in between, then either
/// mark it failed (sweep continues) or propagate the error (no policy /
/// `continue_on_failure` off).
fn resilient_point(
    driver: &mut dyn Driver,
    resilience: Option<&SweepPolicy>,
    measure: &mut dyn FnMut(&mut dyn Driver) -> Result<OnlineStats, DriverError>,
) -> Result<(Option<OnlineStats>, PointStatus), DriverError> {
    let Some(policy) = resilience else {
        return Ok((Some(measure(driver)?), PointStatus::Ok));
    };
    let mut retries = 0u32;
    loop {
        match measure(driver) {
            Ok(stats) => {
                let status = if retries == 0 {
                    PointStatus::Ok
                } else {
                    PointStatus::Degraded { retries }
                };
                return Ok((Some(stats), status));
            }
            Err(e) => {
                if retries < policy.point_retries {
                    retries += 1;
                    // Heal the transport if possible; a failed recovery
                    // just burns the retry (the next measure errors
                    // immediately and we land in the arms below).
                    let _ = driver.recover();
                } else if policy.continue_on_failure {
                    return Ok((
                        None,
                        PointStatus::Failed {
                            error: e.to_string(),
                        },
                    ));
                } else {
                    return Err(e);
                }
            }
        }
    }
}

/// Fold one resolved point into the signature accumulators.
fn push_point(
    points: &mut Vec<Point>,
    lat: &mut OnlineStats,
    latency_bound: u64,
    bytes: u64,
    resolved: (Option<OnlineStats>, PointStatus),
) {
    let (stats, status) = resolved;
    match stats {
        Some(stats) => {
            let best = stats.min();
            let jitter = if stats.min() > 0.0 {
                stats.max() / stats.min() - 1.0
            } else {
                0.0
            };
            if bytes <= latency_bound {
                lat.push(best);
            }
            points.push(Point {
                bytes,
                seconds: best,
                mbps: throughput_mbps(bytes, best),
                jitter,
                status,
            });
        }
        None => points.push(Point {
            bytes,
            seconds: 0.0,
            mbps: 0.0,
            jitter: 0.0,
            status,
        }),
    }
}

/// Run `driver` over the schedule and build its signature.
pub fn run(driver: &mut dyn Driver, opts: &RunOptions) -> Result<Signature, DriverError> {
    let deterministic = driver.is_deterministic();
    let trials = if deterministic { 1 } else { opts.trials.max(1) };
    let warmup = if deterministic { 0 } else { opts.warmup };

    for _ in 0..warmup {
        match driver.roundtrip(64) {
            Ok(_) => {}
            // Under a resilience policy a sick warm-up is survivable;
            // give the transport one healing attempt and move on.
            Err(_) if opts.resilience.is_some() => {
                let _ = driver.recover();
            }
            Err(e) => return Err(e),
        }
    }

    let mut points = Vec::new();
    let mut lat = OnlineStats::new();
    for bytes in sizes(&opts.schedule) {
        let resolved = resilient_point(driver, opts.resilience.as_ref(), &mut |d| {
            let mut stats = OnlineStats::new();
            for _ in 0..trials {
                let rt = d.roundtrip(bytes)?;
                stats.push(rt / 2.0);
            }
            Ok(stats)
        })?;
        push_point(&mut points, &mut lat, opts.latency_bound, bytes, resolved);
    }
    let max_mbps = points.iter().map(|p| p.mbps).fold(0.0, f64::max);
    Ok(Signature {
        name: driver.name(),
        points,
        latency_us: secs_to_us(lat.mean()),
        max_mbps,
    })
}

/// NetPIPE's `-s` streaming mode: instead of ping-pong, `burst_count`
/// messages flow one way per point; throughput amortizes per-message
/// latency and reveals the sustainable injection rate.
pub fn run_streaming(
    driver: &mut dyn Driver,
    opts: &RunOptions,
    burst_count: u32,
) -> Result<Signature, DriverError> {
    assert!(burst_count > 0);
    let deterministic = driver.is_deterministic();
    let trials = if deterministic { 1 } else { opts.trials.max(1) };
    let mut points = Vec::new();
    let mut lat = OnlineStats::new();
    for bytes in sizes(&opts.schedule) {
        let resolved = resilient_point(driver, opts.resilience.as_ref(), &mut |d| {
            let mut stats = OnlineStats::new();
            for _ in 0..trials {
                let total = d.burst(bytes, burst_count)?;
                stats.push(total / f64::from(burst_count));
            }
            Ok(stats)
        })?;
        push_point(&mut points, &mut lat, opts.latency_bound, bytes, resolved);
    }
    let max_mbps = points.iter().map(|p| p.mbps).fold(0.0, f64::max);
    Ok(Signature {
        name: format!("{} [stream x{burst_count}]", driver.name()),
        points,
        latency_us: secs_to_us(lat.mean()),
        max_mbps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake: fixed latency plus rate-limited payload.
    struct FakeDriver {
        lat_s: f64,
        rate_bps: f64,
    }

    impl Driver for FakeDriver {
        fn name(&self) -> String {
            "fake".into()
        }
        fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
            Ok(2.0 * (self.lat_s + bytes as f64 / self.rate_bps))
        }
        fn is_deterministic(&self) -> bool {
            true
        }
    }

    #[test]
    fn signature_reports_latency_and_peak() {
        let mut d = FakeDriver {
            lat_s: 100e-6,
            rate_bps: 125e6 / 2.0,
        };
        let sig = run(&mut d, &RunOptions::quick(1 << 20)).unwrap();
        assert!((sig.latency_us - 100.0).abs() < 2.0, "{}", sig.latency_us);
        // Peak approaches the 500 Mbps (62.5 MB/s) asymptote.
        assert!(sig.max_mbps > 400.0, "{}", sig.max_mbps);
        assert!(sig.max_mbps < 500.0);
        // Monotone for this model.
        for w in sig.points.windows(2) {
            assert!(w[1].mbps >= w[0].mbps);
        }
    }

    #[test]
    fn interpolation_brackets_measured_points() {
        let mut d = FakeDriver {
            lat_s: 50e-6,
            rate_bps: 1e8,
        };
        let sig = run(&mut d, &RunOptions::quick(1 << 16)).unwrap();
        let exact = sig.points[5].mbps;
        assert_eq!(sig.mbps_at(sig.points[5].bytes), exact);
        let mid = sig.mbps_at((sig.points[5].bytes + sig.points[6].bytes) / 2);
        assert!(mid >= exact.min(sig.points[6].mbps));
        assert!(mid <= exact.max(sig.points[6].mbps));
    }

    #[test]
    fn deterministic_driver_has_zero_jitter() {
        let mut d = FakeDriver {
            lat_s: 10e-6,
            rate_bps: 1e8,
        };
        let sig = run(&mut d, &RunOptions::quick(4096)).unwrap();
        assert!(sig.points.iter().all(|p| p.jitter == 0.0));
    }

    #[test]
    fn streaming_signature_amortizes_latency() {
        // With the default burst() (half round trips), streaming equals
        // ping-pong; a pipelining driver must beat it. Use a fake that
        // models a pipeline: burst costs one latency plus n transfers.
        struct Pipelined;
        impl Driver for Pipelined {
            fn name(&self) -> String {
                "pipe".into()
            }
            fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
                Ok(2.0 * (100e-6 + bytes as f64 / 1e8))
            }
            fn burst(&mut self, bytes: u64, count: u32) -> Result<f64, DriverError> {
                Ok(100e-6 + f64::from(count) * bytes as f64 / 1e8)
            }
            fn is_deterministic(&self) -> bool {
                true
            }
        }
        let opts = RunOptions::quick(1 << 16);
        let pp = run(&mut Pipelined, &opts).unwrap();
        let st = run_streaming(&mut Pipelined, &opts, 16).unwrap();
        assert!(st.name.contains("stream"));
        // Small messages: streaming >> ping-pong.
        assert!(st.points[0].mbps > 5.0 * pp.points[0].mbps);
        // Large messages converge to the same asymptote.
        let ratio = st.final_mbps() / pp.final_mbps();
        assert!((0.9..1.6).contains(&ratio), "{ratio}");
    }

    /// A driver whose transport breaks at specific sizes: sizes in
    /// `flaky` error until `recover()` heals the link; sizes in `poison`
    /// error on every attempt, healed or not.
    struct BreakableDriver {
        flaky: Vec<u64>,
        poison: Vec<u64>,
        healthy: bool,
        recoveries: u32,
    }

    impl BreakableDriver {
        fn new(flaky: &[u64], poison: &[u64]) -> Self {
            BreakableDriver {
                flaky: flaky.to_vec(),
                poison: poison.to_vec(),
                healthy: true,
                recoveries: 0,
            }
        }
    }

    impl Driver for BreakableDriver {
        fn name(&self) -> String {
            "breakable".into()
        }
        fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
            if self.poison.contains(&bytes) {
                return Err(DriverError::Protocol("poisoned size".into()));
            }
            if let Some(i) = self.flaky.iter().position(|&b| b == bytes) {
                // First touch of a flaky size drops the connection; a
                // recovered link does not trip on it again.
                self.flaky.remove(i);
                self.healthy = false;
            }
            if !self.healthy {
                return Err(DriverError::Protocol("link down".into()));
            }
            Ok(2.0 * (10e-6 + bytes as f64 / 1e8))
        }
        fn recover(&mut self) -> Result<(), DriverError> {
            self.healthy = true;
            self.recoveries += 1;
            Ok(())
        }
        fn is_deterministic(&self) -> bool {
            true
        }
    }

    #[test]
    fn resilience_degrades_and_continues_past_failures() {
        let opts = RunOptions::quick(1 << 14);
        let all: Vec<u64> = sizes(&opts.schedule);
        let flaky = all[2];
        let poison = all[5];
        let mut d = BreakableDriver::new(&[flaky], &[poison]);
        let sig = run(
            &mut d,
            &opts.clone().with_resilience(SweepPolicy::default()),
        )
        .unwrap();

        assert!(sig.is_partial());
        assert_eq!(sig.degraded_count(), 1);
        assert_eq!(sig.failed_count(), 1);
        assert!(d.recoveries >= 1);

        let deg = sig.points.iter().find(|p| p.bytes == flaky).unwrap();
        assert!(matches!(deg.status, PointStatus::Degraded { retries } if retries >= 1));
        assert!(deg.mbps > 0.0, "degraded point still measured");

        let dead = sig.points.iter().find(|p| p.bytes == poison).unwrap();
        assert!(matches!(&dead.status, PointStatus::Failed { error } if error.contains("poison")));
        assert_eq!(dead.mbps, 0.0);

        // Failed points are gaps: interpolation and the final rate skip
        // them instead of averaging in zeros.
        assert!(sig.mbps_at(poison) > 0.0);
        assert!(sig.final_mbps() > 0.0);
        assert_eq!(sig.measured_points().count(), all.len() - 1);
    }

    #[test]
    fn without_resilience_first_error_aborts() {
        let opts = RunOptions::quick(1 << 14);
        let all: Vec<u64> = sizes(&opts.schedule);
        let mut d = BreakableDriver::new(&[all[2]], &[]);
        let err = run(&mut d, &opts).unwrap_err();
        assert!(err.to_string().contains("link down"), "{err}");
        assert_eq!(d.recoveries, 0, "no recovery without a policy");
    }

    #[test]
    fn streaming_respects_resilience_policy() {
        let opts = RunOptions::quick(1 << 14);
        let all: Vec<u64> = sizes(&opts.schedule);
        let mut d = BreakableDriver::new(&[], &[all[1]]);
        let sig = run_streaming(
            &mut d,
            &opts.clone().with_resilience(SweepPolicy::default()),
            4,
        )
        .unwrap();
        assert_eq!(sig.failed_count(), 1);
        assert!(sig.is_partial());
        assert!(sig.final_mbps() > 0.0);
    }

    #[test]
    fn dip_ratio_flags_discontinuities() {
        /// Fake with a 30% throughput dip above 64 kB.
        struct Dippy;
        impl Driver for Dippy {
            fn name(&self) -> String {
                "dippy".into()
            }
            fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
                let rate = if bytes > 65536 { 0.7e8 } else { 1e8 };
                Ok(2.0 * (1e-6 + bytes as f64 / rate))
            }
            fn is_deterministic(&self) -> bool {
                true
            }
        }
        let sig = run(&mut Dippy, &RunOptions::quick(1 << 20)).unwrap();
        let dip = sig.dip_ratio(65536);
        assert!((0.6..0.85).contains(&dip), "dip {dip}");
        let flat = sig.dip_ratio(32768);
        assert!(flat > 0.9, "no dip expected at 32k: {flat}");
    }
}
