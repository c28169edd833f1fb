//! Fixture sim crate: one units violation. Never compiled.

pub fn bps(mhz: f64) -> f64 {
    mhz * 1e6
}
