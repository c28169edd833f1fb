//! Unit helpers shared across the workspace.
//!
//! The paper reports throughput in **Mbps** (decimal megabits per second,
//! as NetPIPE does) and latencies in microseconds; internal rates are in
//! bytes per second. These helpers keep conversions in one audited place.

/// Bytes per second corresponding to `mbps` decimal megabits per second.
#[inline]
pub fn mbps_to_bytes_per_sec(mbps: f64) -> f64 {
    mbps * 1e6 / 8.0
}

/// Decimal megabits per second corresponding to a byte rate.
#[inline]
pub fn bytes_per_sec_to_mbps(bps: f64) -> f64 {
    bps * 8.0 / 1e6
}

/// Bytes per second corresponding to `gbps` decimal gigabits per second.
#[inline]
pub fn gbps_to_bytes_per_sec(gbps: f64) -> f64 {
    gbps * 1e9 / 8.0
}

/// Bytes per second for a memory-copy rate quoted in MB/s (decimal).
#[inline]
pub fn mbytes_to_bytes_per_sec(mbs: f64) -> f64 {
    mbs * 1e6
}

/// NetPIPE throughput: `bytes` moved one way in `seconds`, in Mbps.
/// Returns 0 for non-positive time.
#[inline]
pub fn throughput_mbps(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / seconds / 1e6
}

/// Seconds → microseconds (reporting form for latencies).
#[inline]
pub fn secs_to_us(s: f64) -> f64 {
    s * 1e6
}

/// Seconds → milliseconds.
#[inline]
pub fn secs_to_ms(s: f64) -> f64 {
    s * 1e3
}

/// Microseconds → seconds.
#[inline]
pub fn us_to_secs(us: f64) -> f64 {
    us * 1e-6
}

/// Nanoseconds → microseconds.
#[inline]
pub fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// Whole bytes a link of `bytes_per_sec` moves in `d`, rounded to the
/// nearest byte. Non-finite or non-positive rates yield zero.
#[inline]
pub fn bytes_at_rate(bytes_per_sec: f64, d: crate::time::SimDuration) -> u64 {
    if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
        return 0;
    }
    (bytes_per_sec * d.as_secs_f64()).round() as u64
}

/// Burst rate of a `width_bits`-wide bus clocked at `mhz`, bytes/second
/// (the PCI model: 64 bit × 66 MHz = 528 MB/s).
#[inline]
pub fn bus_bytes_per_sec(width_bits: u32, mhz: f64) -> f64 {
    f64::from(width_bits) / 8.0 * mhz * 1e6
}

/// Kibibytes → bytes (socket-buffer and threshold sizes in the paper are
/// quoted in binary kB: "32 kB", "128 kB", "256 kB").
#[inline]
pub const fn kib(n: u64) -> u64 {
    n * 1024
}

/// Mebibytes → bytes.
#[inline]
pub const fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_round_trip() {
        let bps = mbps_to_bytes_per_sec(550.0);
        assert!((bps - 68_750_000.0).abs() < 1e-6);
        assert!((bytes_per_sec_to_mbps(bps) - 550.0).abs() < 1e-9);
    }

    #[test]
    fn gbps_is_1000_mbps() {
        assert_eq!(gbps_to_bytes_per_sec(1.0), mbps_to_bytes_per_sec(1000.0));
    }

    #[test]
    fn throughput_examples() {
        // 1 MB in 10 ms = 800 Mbps.
        assert!((throughput_mbps(1_000_000, 0.01) - 800.0).abs() < 1e-9);
        assert_eq!(throughput_mbps(1000, 0.0), 0.0);
        assert_eq!(throughput_mbps(1000, -1.0), 0.0);
    }

    #[test]
    fn binary_sizes() {
        assert_eq!(kib(32), 32_768);
        assert_eq!(kib(128), 131_072);
        assert_eq!(mib(8), 8_388_608);
    }

    #[test]
    fn mbytes_conversion() {
        assert_eq!(mbytes_to_bytes_per_sec(300.0), 3e8);
    }

    #[test]
    fn time_scale_conversions() {
        assert_eq!(secs_to_us(0.01), 10_000.0);
        assert_eq!(secs_to_ms(0.25), 250.0);
        assert_eq!(us_to_secs(10_000.0), 0.01);
        assert_eq!(ns_to_us(2_500.0), 2.5);
    }

    #[test]
    fn bytes_at_rate_rounds_and_clamps() {
        use crate::time::SimDuration;
        // 125 MB/s for 200 us = 25_000 bytes.
        let d = SimDuration::from_micros_f64(200.0);
        assert_eq!(bytes_at_rate(125_000_000.0, d), 25_000);
        assert_eq!(bytes_at_rate(0.0, d), 0);
        assert_eq!(bytes_at_rate(f64::INFINITY, d), 0);
    }

    #[test]
    fn bus_rate_matches_paper_pci() {
        // 64-bit 66 MHz PCI: 528 MB/s.
        assert_eq!(bus_bytes_per_sec(64, 66.0), 528e6);
        assert_eq!(bus_bytes_per_sec(32, 33.0), 132e6);
    }
}
