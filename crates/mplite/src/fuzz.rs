//! In-tree protocol fuzzer for the v2 frame decoder and control paths.
//!
//! No external fuzzing engine, no process forking: a [`simcore::SimRng`]
//! mutates a corpus of valid frames (bit flips, splices, truncations,
//! length tampering, garbage) and pushes the bytes through
//! [`FrameDecoder`] in randomly sized chunks, plus every decoded control
//! frame through `crate::comm`'s FIN/POISON parser. The contract under
//! test is the one the reader threads rely on:
//!
//! * every input yields verified frames or a typed [`FrameError`] —
//!   never a panic, never a hang;
//! * no payload buffer larger than the configured cap is ever handed
//!   back (the length check precedes allocation);
//! * the run is a pure function of the seed, so a failing seed *is* the
//!   reproducer.
//!
//! The harness is a library entry point ([`run_seed`]) returning a
//! stats struct, driven by tests and by `bench`'s `wire_chaos` binary
//! (which serializes the stats as JSON for CI artifacts).

use std::collections::BTreeMap;

use simcore::SimRng;

use crate::comm;
use crate::frame::{self, FrameDecoder, FrameError};

/// Payload cap the fuzz decoders enforce. Deliberately small so length
/// tampering actually crosses it, and so a cap violation (a returned
/// payload bigger than this) is unmistakable.
pub const FUZZ_MAX_MESSAGE: u64 = 1 << 16;

/// Aggregated result of one fuzzing seed. Field-for-field deterministic
/// given (`seed`, `frames`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The seed that produced this report.
    pub seed: u64,
    /// Mutated frames pushed through the decoder.
    pub frames: u64,
    /// Inputs that decoded to one or more verified frames.
    pub clean: u64,
    /// Inputs rejected with a typed [`FrameError`].
    pub rejected: u64,
    /// Verified control frames (FIN/POISON tags) that the control
    /// parser classified.
    pub control_classified: u64,
    /// Verified control frames the control parser ignored (unusable
    /// payload) — allowed, as long as it returns.
    pub control_ignored: u64,
    /// Rejections by `FrameError::kind`.
    pub by_error: BTreeMap<&'static str, u64>,
    /// Contract violations: payloads returned over the cap. Always 0 on
    /// a passing run; counted instead of asserted so the caller owns
    /// the verdict.
    pub cap_violations: u64,
}

impl FuzzReport {
    /// `clean + rejected` must account for every input.
    pub fn accounted(&self) -> bool {
        self.clean + self.rejected == self.frames
    }
}

/// One corpus entry: a valid v2 frame as raw wire bytes.
fn corpus() -> Vec<Vec<u8>> {
    let fin = crate::comm::FIN_TAG;
    let poison = crate::comm::POISON_TAG;
    let mut out = Vec::new();
    let cases: &[(u32, i32, Vec<u8>)] = &[
        (0, 0, Vec::new()),
        (1, 5, b"hello wire".to_vec()),
        (u32::MAX, i32::MAX, vec![0xAB; 64]),
        (7, i32::MIN, vec![0x00; 1]),
        (2, -1, (0..=255u8).collect()),
        (3, fin, Vec::new()),
        (4, poison, 3u64.to_le_bytes().to_vec()),
        (5, poison, vec![1, 2, 3]), // wrong-length verdict: ignorable
        (6, 1_000, vec![0x55; 4096]),
    ];
    for (src, tag, payload) in cases {
        let (h, n) = frame::build_header(frame::WIRE_V2, *src, *tag, payload);
        let mut bytes = h[..n].to_vec();
        bytes.extend_from_slice(payload);
        out.push(bytes);
    }
    out
}

/// Apply one seeded mutation to `bytes`.
fn mutate(rng: &mut SimRng, bytes: &mut Vec<u8>) {
    match rng.next_below(6) {
        // Flip a single bit anywhere in the frame.
        0 if !bytes.is_empty() => {
            let bit = rng.next_below(bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        // Overwrite a byte with garbage.
        1 if !bytes.is_empty() => {
            let i = rng.next_below(bytes.len() as u64) as usize;
            bytes[i] = rng.next_u64() as u8;
        }
        // Truncate to a seeded prefix.
        2 if !bytes.is_empty() => {
            let keep = rng.next_below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        // Append garbage (desyncs whatever follows).
        3 => {
            let extra = rng.next_below(16) + 1;
            for _ in 0..extra {
                bytes.push(rng.next_u64() as u8);
            }
        }
        // Tamper with the declared length field.
        4 if bytes.len() >= frame::V2_HEADER_LEN => {
            let len = match rng.next_below(3) {
                0 => u64::MAX,
                1 => FUZZ_MAX_MESSAGE + 1 + rng.next_below(1 << 20),
                _ => rng.next_below(FUZZ_MAX_MESSAGE),
            };
            bytes[12..20].copy_from_slice(&len.to_le_bytes());
        }
        // Splice in a chunk of another corpus entry's bytes.
        _ => {
            let at = rng.next_below(bytes.len() as u64 + 1) as usize;
            let n = rng.next_below(8) as usize;
            for k in 0..n {
                bytes.insert(at, (k as u8).wrapping_mul(0x9D));
            }
        }
    }
}

/// Fuzz the decoder with `frames` mutated inputs derived from `seed`.
/// Deterministic: identical arguments give an identical report.
pub fn run_seed(seed: u64, frames: u64) -> FuzzReport {
    let base = corpus();
    let mut rng = SimRng::new(seed);
    let mut report = FuzzReport {
        seed,
        frames,
        clean: 0,
        rejected: 0,
        control_classified: 0,
        control_ignored: 0,
        by_error: BTreeMap::new(),
        cap_violations: 0,
    };
    for _ in 0..frames {
        let mut bytes = base[rng.next_below(base.len() as u64) as usize].clone();
        let mutations = rng.next_below(4) + 1;
        for _ in 0..mutations {
            mutate(&mut rng, &mut bytes);
        }
        let outcome = push_through_decoder(&mut rng, &bytes);
        match outcome {
            Ok(decoded) => {
                report.clean += 1;
                for f in decoded {
                    if f.payload.len() as u64 > FUZZ_MAX_MESSAGE {
                        report.cap_violations += 1;
                    }
                    if f.tag == comm::FIN_TAG || f.tag == comm::POISON_TAG {
                        match comm::parse_control(f.tag, &f.payload) {
                            Some(_) => report.control_classified += 1,
                            None => report.control_ignored += 1,
                        }
                    }
                }
            }
            Err(e) => {
                report.rejected += 1;
                *report.by_error.entry(e.kind()).or_insert(0) += 1;
            }
        }
    }
    report
}

/// Feed `bytes` through a fresh decoder in seeded chunk sizes, then
/// signal EOF. Either every byte is consumed into verified frames, or
/// the first typed error wins.
fn push_through_decoder(
    rng: &mut SimRng,
    bytes: &[u8],
) -> std::result::Result<Vec<frame::Frame>, FrameError> {
    let mut dec = FrameDecoder::new(FUZZ_MAX_MESSAGE);
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let chunk = (rng.next_below(64) as usize + 1).min(bytes.len() - off);
        out.extend(dec.feed(&bytes[off..off + chunk])?);
        off += chunk;
    }
    dec.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_deterministic_per_seed() {
        let a = run_seed(42, 500);
        let b = run_seed(42, 500);
        assert_eq!(a, b);
        let c = run_seed(43, 500);
        assert_ne!(a, c, "different seeds explore different inputs");
    }

    #[test]
    fn every_input_is_accounted_and_bounded() {
        for seed in [1, 2, 3] {
            let r = run_seed(seed, 1_000);
            assert!(r.accounted(), "{r:?}");
            assert_eq!(r.cap_violations, 0, "{r:?}");
        }
    }

    #[test]
    fn the_fuzzer_actually_exercises_both_outcomes() {
        let r = run_seed(7, 2_000);
        assert!(r.clean > 0, "some mutations must survive: {r:?}");
        assert!(r.rejected > 0, "some mutations must be caught: {r:?}");
        assert!(!r.by_error.is_empty(), "{r:?}");
    }
}
