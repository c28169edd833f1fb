//! Simulated time types.
//!
//! The kernel counts time in integer **nanoseconds** so that event ordering
//! is exact and runs are bit-for-bit reproducible. Floating-point seconds
//! are only used at the API boundary (converting bandwidths and reporting
//! results); every comparison inside the engine is integral.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of every simulation run.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run (lossy; for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Microseconds since the start of the run (lossy; for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

/// `x.round()` (half away from zero) as a saturating `u64`, for `x >= 0`,
/// without libm's `round` — a call, not an instruction, on baseline
/// x86-64, and made ~10 times per simulated TCP segment. Below 2^53 the
/// truncation converts back exactly and the subtraction is exact; from
/// 2^53 up every `f64` is an integer and the saturating cast is the
/// rounding. Bit-identical to the libm formulation for every input.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
    let t = x as u64;
    if x < TWO_POW_53 {
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        t
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Build a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Build a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_micros_f64(us: f64) -> SimDuration {
        SimDuration::from_secs_f64(us * 1e-6)
    }

    /// Build a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(s * 1e9))
    }

    /// The time needed to move `bytes` through a link of `bytes_per_sec`,
    /// rounded to the nearest nanosecond. A non-positive rate yields zero
    /// (treated as "infinitely fast"), matching how optional pipeline
    /// stages are disabled.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> SimDuration {
        if bytes_per_sec <= 0.0 || bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Nanoseconds in this span.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this span (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Fractional microseconds in this span (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// True for the zero-length span.
    #[inline]
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_add_duration() {
        let t = SimTime(100) + SimDuration::from_nanos(50);
        assert_eq!(t, SimTime(150));
    }

    #[test]
    fn time_difference() {
        assert_eq!(SimTime(500) - SimTime(200), SimDuration(300));
    }

    #[test]
    fn duration_from_micros() {
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(1.4e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(1.6e-9).as_nanos(), 2);
    }

    #[test]
    fn duration_from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
    }

    /// The libm formulation `from_secs_f64` used before it rounded inline.
    fn from_secs_f64_libm(s: f64) -> SimDuration {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = (s * 1e9).round();
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    fn round_libm(x: f64) -> u64 {
        // `as` saturates, and NaN casts to 0.
        x.round() as u64
    }

    #[test]
    fn inline_rounding_matches_libm_on_adversarial_values() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            two52 - 1.0,
            two52,
            two52 + 1.0,
            two53 - 2.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            9e15,
            1.8e19,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),             // smallest subnormal
            f64::from_bits((1 << 52) - 1), // largest subnormal
        ];
        for k in 0..=1000u32 {
            let half = f64::from(k) + 0.5;
            xs.push(half);
            xs.push(f64::from_bits(half.to_bits() - 1));
            xs.push(f64::from_bits(half.to_bits() + 1));
        }
        for &x in &xs {
            assert_eq!(round_to_u64(x), round_libm(x), "x = {x:e}");
            // The same values read as seconds and as nanoseconds-in-
            // seconds, through the public entry point.
            for s in [x, x * 1e-9, -x] {
                assert_eq!(
                    SimDuration::from_secs_f64(s),
                    from_secs_f64_libm(s),
                    "s = {s:e}"
                );
            }
        }
        for s in [f64::NAN, f64::NEG_INFINITY, -1.0, -f64::MIN_POSITIVE] {
            assert_eq!(SimDuration::from_secs_f64(s), SimDuration::ZERO, "{s}");
        }
    }

    #[test]
    fn inline_rounding_matches_libm_on_a_million_seeded_values() {
        let mut rng = crate::SimRng::new(0x5EED_2002);
        for i in 0..1_000_000u32 {
            // A third each: arbitrary bit patterns (every exponent, both
            // signs, NaNs), durations the simulator produces (ns to
            // seconds), and values within an ulp or two of a half.
            let s = match i % 3 {
                0 => f64::from_bits(rng.next_u64()),
                1 => rng.next_below(2_000_000_000) as f64 * 1e-9 * rng.next_f64(),
                _ => {
                    let half = rng.next_below(1 << 40) as f64 + 0.5;
                    let nudged = half.to_bits() + rng.next_below(5) - 2;
                    f64::from_bits(nudged) * 1e-9
                }
            };
            assert_eq!(
                SimDuration::from_secs_f64(s),
                from_secs_f64_libm(s),
                "s = {s:e} ({:#x})",
                s.to_bits()
            );
            let x = s.abs();
            assert_eq!(round_to_u64(x), round_libm(x), "x = {x:e}");
        }
    }

    #[test]
    fn for_bytes_basic_rates() {
        // 125 MB/s == 1 Gbps: 125 bytes take 1 us.
        let d = SimDuration::for_bytes(125, 125e6);
        assert_eq!(d.as_nanos(), 1_000);
        // Zero rate disables the stage.
        assert_eq!(SimDuration::for_bytes(1000, 0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::for_bytes(0, 125e6), SimDuration::ZERO);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration(1_000_000_000), SimTime::MAX);
        assert_eq!(SimTime(5).saturating_since(SimTime(9)), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime(1_500)), "1.500us");
        assert_eq!(format!("{}", SimDuration(2_000)), "2.000us");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration(1) < SimDuration(2));
        assert_eq!(SimTime(7).max(SimTime(3)), SimTime(7));
        assert_eq!(SimTime(3).max(SimTime(7)), SimTime(7));
    }
}
