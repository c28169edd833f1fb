//! Signature analysis: the derived metrics the original NetPIPE paper
//! (Snell, Mikler & Gustafson) reads off a throughput signature.
//!
//! * **saturation point** — the message size where the curve reaches a
//!   given fraction of its peak (the knee of the signature);
//! * **half-performance length n½** — the classic Hockney metric: the
//!   message size achieving half the asymptotic rate;
//! * **latency/bandwidth model fit** — least-squares fit of
//!   `t(n) = t0 + n/r∞` over the large-message tail, giving the effective
//!   start-up time `t0` and asymptotic rate `r∞`.

use crate::runner::Signature;

/// Derived metrics for one signature.
#[derive(Debug, Clone)]
pub struct SignatureAnalysis {
    /// Half-performance length n½, bytes (first size reaching half the
    /// peak rate).
    pub n_half: u64,
    /// Size reaching 90 % of the peak rate, bytes.
    pub saturation_bytes: u64,
    /// Fitted start-up time, seconds.
    pub t0_s: f64,
    /// Fitted asymptotic rate, bytes/second.
    pub r_inf_bps: f64,
}

/// First message size whose throughput reaches `frac` of the peak.
pub(crate) fn size_reaching(sig: &Signature, frac: f64) -> Option<u64> {
    let target = sig.max_mbps * frac;
    sig.points
        .iter()
        .find(|p| p.mbps >= target)
        .map(|p| p.bytes)
}

/// Least-squares fit of `t(n) = t0 + n / r_inf` over all points.
///
/// Returns `(t0_seconds, r_inf_bytes_per_second)`. With fewer than two
/// points the fit degenerates to `(t, ∞)`.
pub(crate) fn fit_hockney(sig: &Signature) -> (f64, f64) {
    let n = sig.points.len() as f64;
    if sig.points.len() < 2 {
        return (sig.points.first().map_or(0.0, |p| p.seconds), f64::INFINITY);
    }
    // Linear regression of t on n (message size).
    let sx: f64 = sig.points.iter().map(|p| p.bytes as f64).sum();
    let sy: f64 = sig.points.iter().map(|p| p.seconds).sum();
    let sxx: f64 = sig.points.iter().map(|p| (p.bytes as f64).powi(2)).sum();
    let sxy: f64 = sig.points.iter().map(|p| p.bytes as f64 * p.seconds).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (sy / n, f64::INFINITY);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let r_inf = if slope > 0.0 {
        1.0 / slope
    } else {
        f64::INFINITY
    };
    (intercept.max(0.0), r_inf)
}

/// Compute the full analysis for a signature.
pub fn analyze(sig: &Signature) -> SignatureAnalysis {
    let (t0_s, r_inf_bps) = fit_hockney(sig);
    SignatureAnalysis {
        n_half: size_reaching(sig, 0.5).unwrap_or(u64::MAX),
        saturation_bytes: size_reaching(sig, 0.9).unwrap_or(u64::MAX),
        t0_s,
        r_inf_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Point;
    use simcore::units::throughput_mbps;

    /// Synthesize a perfect Hockney signature t = t0 + n/r.
    fn hockney_sig(t0: f64, r: f64) -> Signature {
        let points: Vec<Point> = (0..24)
            .map(|i| {
                let bytes = 1u64 << i;
                let seconds = t0 + bytes as f64 / r;
                Point {
                    bytes,
                    seconds,
                    mbps: throughput_mbps(bytes, seconds),
                    jitter: 0.0,
                    status: crate::runner::PointStatus::Ok,
                }
            })
            .collect();
        let max_mbps = points.iter().map(|p| p.mbps).fold(0.0, f64::max);
        Signature {
            name: "hockney".into(),
            points,
            latency_us: t0 * 1e6,
            max_mbps,
        }
    }

    #[test]
    fn fit_recovers_parameters() {
        let sig = hockney_sig(100e-6, 68.75e6); // 100 us, 550 Mbps
        let (t0, r) = fit_hockney(&sig);
        assert!((t0 - 100e-6).abs() < 2e-6, "t0 {t0}");
        assert!((r - 68.75e6).abs() / 68.75e6 < 0.02, "r {r}");
    }

    #[test]
    fn n_half_matches_theory() {
        // For t = t0 + n/r, half rate is reached at n = t0 * r exactly;
        // the schedule quantizes to the next power of two.
        let sig = hockney_sig(100e-6, 68.75e6);
        let a = analyze(&sig);
        let theory = (100e-6 * 68.75e6) as u64; // 6875 bytes
        assert!(
            a.n_half >= theory && a.n_half <= theory * 4,
            "n_half {} vs theory {}",
            a.n_half,
            theory
        );
        assert!(a.saturation_bytes > a.n_half);
    }

    #[test]
    fn degenerate_signatures_are_safe() {
        let mut sig = hockney_sig(1e-6, 1e8);
        sig.points.truncate(1);
        sig.max_mbps = sig.points[0].mbps;
        let (t0, r) = fit_hockney(&sig);
        assert!(t0 >= 0.0);
        assert!(r.is_infinite());
        let a = analyze(&sig);
        // A single latency-bound point never reaches half of itself... it
        // is its own peak, so n_half is that point.
        assert_eq!(a.n_half, sig.points[0].bytes);
    }

    #[test]
    fn size_reaching_full_peak_exists() {
        let sig = hockney_sig(10e-6, 1e8);
        let at_peak = size_reaching(&sig, 1.0).unwrap();
        assert_eq!(at_peak, sig.points.last().unwrap().bytes);
    }
}
