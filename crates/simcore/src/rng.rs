//! A small, dependency-free deterministic RNG.
//!
//! The simulator needs exact reproducibility across runs and platforms:
//! the same seed gives the same stream everywhere.
//!
//! The generator is xoshiro256** seeded through splitmix64 — the standard
//! public-domain construction (Blackman & Vigna). Not cryptographic; used
//! only for size-schedule perturbations and synthetic workload jitter.

/// Seeded xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed a generator; any seed (including zero) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for an unbiased
    /// result.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = SimRng::new(0);
        // xoshiro must never be seeded all-zero; splitmix prevents that.
        let x = r.next_u64();
        let y = r.next_u64();
        assert!(x != 0 || y != 0);
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
        assert_eq!(r.next_below(0), 0);
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut r = SimRng::new(11);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let x = r.uniform(-2.0, 6.0);
            assert!((-2.0..6.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} too far from 2.0");
    }
}
