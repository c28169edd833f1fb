//! Operations, element encodings, and the byte-level combine semantics
//! shared by every backend.
//!
//! Both executors (the simulated one and the real blocking one) move
//! *bytes*; reductions happen by decoding fixed-width little-endian
//! elements, combining them in schedule order, and re-encoding. Because
//! the combine code lives here — not in a backend — the two backends
//! produce byte-identical results for the same schedule and inputs.

use crate::schedule::SendWhat;

/// Which collective a schedule implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Pure synchronization: no data moves, only empty tokens.
    Barrier,
    /// One rank's payload ends up on every rank.
    Bcast,
    /// Elementwise reduction of every rank's contribution to the root.
    Reduce,
    /// Reduction whose result every rank receives.
    Allreduce,
    /// Every rank's block ends up on every rank, in rank order.
    Allgather,
}

impl CollOp {
    /// Stable lower-case name (CSV/figure labels).
    pub fn name(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Bcast => "bcast",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
            CollOp::Allgather => "allgather",
        }
    }

    /// All five ops, in declaration order.
    pub fn all() -> [CollOp; 5] {
        [
            CollOp::Barrier,
            CollOp::Bcast,
            CollOp::Reduce,
            CollOp::Allreduce,
            CollOp::Allgather,
        ]
    }
}

/// Reduction operators (the set MP_Lite's globals support, §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise product.
    Prod,
}

/// Fixed-width little-endian element encodings a reduction operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 64-bit IEEE float.
    F64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit unsigned integer.
    U64,
}

impl Dtype {
    /// Serialized size of one element, bytes.
    pub(crate) fn width(self) -> usize {
        match self {
            Dtype::F64 | Dtype::I64 | Dtype::U64 => 8,
            Dtype::F32 | Dtype::I32 => 4,
        }
    }
}

trait Elem: Copy + PartialOrd {
    const WIDTH: usize;
    fn get(bytes: &[u8]) -> Self;
    fn put(self, bytes: &mut [u8]);
    fn add(self, other: Self) -> Self;
    fn mul(self, other: Self) -> Self;
}

macro_rules! impl_elem {
    ($t:ty, $add:expr, $mul:expr) => {
        impl Elem for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn get(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(bytes);
                <$t>::from_le_bytes(buf)
            }
            #[inline]
            fn put(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn add(self, other: Self) -> Self {
                $add(self, other)
            }
            #[inline]
            fn mul(self, other: Self) -> Self {
                $mul(self, other)
            }
        }
    };
}

// Integer sums and products wrap: collectives must produce the same
// bytes in debug and release builds, and a reduction over arbitrary
// per-rank contributions has no non-wrapping answer to promise.
impl_elem!(f64, |a, b| a + b, |a, b| a * b);
impl_elem!(f32, |a, b| a + b, |a, b| a * b);
impl_elem!(i64, i64::wrapping_add, i64::wrapping_mul);
impl_elem!(i32, i32::wrapping_add, i32::wrapping_mul);
impl_elem!(u64, u64::wrapping_add, u64::wrapping_mul);

/// `acc[i] = f(acc[i], other[i])` over whole elements: one loop body
/// with no branch on the operator, so it vectorises.
#[inline]
fn fold<T: Elem>(acc: &mut [u8], other: &[u8], f: impl Fn(T, T) -> T) {
    for (a, b) in acc
        .chunks_exact_mut(T::WIDTH)
        .zip(other.chunks_exact(T::WIDTH))
    {
        f(T::get(a), T::get(b)).put(a);
    }
}

/// One loop per operator. `Min` and `Max` keep the accumulator unless
/// the incoming element is strictly smaller (larger), so a NaN or a
/// tie resolves as it always has.
fn combine_as<T: Elem>(op: ReduceOp, acc: &mut [u8], other: &[u8]) {
    match op {
        ReduceOp::Sum => fold(acc, other, T::add),
        ReduceOp::Prod => fold(acc, other, T::mul),
        ReduceOp::Min => fold(acc, other, |a: T, b: T| if b < a { b } else { a }),
        ReduceOp::Max => fold(acc, other, |a: T, b: T| if b > a { b } else { a }),
    }
}

/// Elementwise-combine `other` into `acc` under `op`, interpreting both
/// as little-endian `dtype` slices. The combine order is exactly
/// "incoming folded into the accumulator", so every backend executing
/// the same schedule folds in the same order and produces the same
/// bytes — including for floats, where order matters.
///
/// Panics on length mismatch or a length that is not a whole number of
/// elements: all ranks of a reduction must contribute equal-length
/// slices, so a mismatch is a caller bug, as in the hand-rolled
/// collectives this module replaces.
pub fn combine_bytes(dtype: Dtype, op: ReduceOp, acc: &mut [u8], other: &[u8]) {
    assert_eq!(acc.len(), other.len(), "reduction length mismatch");
    assert!(
        acc.len().is_multiple_of(dtype.width()),
        "reduction payload is not a whole number of {dtype:?} elements"
    );
    match dtype {
        Dtype::F64 => combine_as::<f64>(op, acc, other),
        Dtype::F32 => combine_as::<f32>(op, acc, other),
        Dtype::I64 => combine_as::<i64>(op, acc, other),
        Dtype::I32 => combine_as::<i32>(op, acc, other),
        Dtype::U64 => combine_as::<u64>(op, acc, other),
    }
}

/// Frame several variable-length blocks into one message:
/// `[u32 count][u64 len]*count [bytes]*count`, all little-endian. The
/// format matches the length-prefix table mplite's tree allgather used,
/// so multi-block tree traffic keeps its historical wire size.
pub(crate) fn pack_blocks(parts: &[&[u8]]) -> Vec<u8> {
    let total = parts.iter().map(|p| p.len() as u64).sum();
    let mut out = Vec::with_capacity(framed_len(parts.len(), total) as usize);
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for p in parts {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    }
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

/// Length of [`pack_blocks`] over `count` blocks of `total` bytes.
fn framed_len(count: usize, total: u64) -> u64 {
    4 + 8 * count as u64 + total
}

/// Length of the message a send step puts on the wire, from the
/// sender's accumulator length `acc` and each block's length, its slots
/// wrapping at `n`: what [`crate::RankState::payload`] would
/// materialize, without the bytes. A token is empty, a single block
/// travels raw, and several are framed as [`pack_blocks`] frames them.
pub(crate) fn send_len(what: SendWhat, n: usize, acc: u64, block: impl Fn(u32) -> u64) -> u64 {
    match what {
        SendWhat::Token => 0,
        SendWhat::Acc => acc,
        SendWhat::Blocks(range) if range.count == 1 => block(range.first),
        SendWhat::Blocks(range) => {
            framed_len(range.count as usize, range.slots(n).map(block).sum())
        }
    }
}

/// Invert [`pack_blocks`]. `count` is the expected block count (the
/// schedule names the block indices, so both ends agree on it).
/// Panics on malformed framing: the bytes come from our own
/// `pack_blocks` on the sending rank, so damage is an executor bug.
pub(crate) fn unpack_blocks(bytes: &[u8], count: usize) -> Vec<Vec<u8>> {
    assert!(bytes.len() >= 4, "block frame shorter than its header");
    let mut hdr = [0u8; 4];
    hdr.copy_from_slice(&bytes[0..4]);
    let got = u32::from_le_bytes(hdr) as usize;
    assert_eq!(got, count, "block frame count mismatch");
    let mut lens = Vec::with_capacity(count);
    let mut off = 4;
    for _ in 0..count {
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[off..off + 8]);
        lens.push(u64::from_le_bytes(len8) as usize);
        off += 8;
    }
    let mut parts = Vec::with_capacity(count);
    for len in lens {
        parts.push(bytes[off..off + len].to_vec());
        off += len;
    }
    assert_eq!(off, bytes.len(), "trailing bytes after block frame");
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_u64(xs: &[u64]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn combine_sum_min_max_prod_u64() {
        let mut acc = enc_u64(&[1, 9, 4]);
        combine_bytes(Dtype::U64, ReduceOp::Sum, &mut acc, &enc_u64(&[2, 1, 6]));
        assert_eq!(acc, enc_u64(&[3, 10, 10]));
        combine_bytes(Dtype::U64, ReduceOp::Min, &mut acc, &enc_u64(&[5, 2, 20]));
        assert_eq!(acc, enc_u64(&[3, 2, 10]));
        combine_bytes(Dtype::U64, ReduceOp::Max, &mut acc, &enc_u64(&[4, 1, 30]));
        assert_eq!(acc, enc_u64(&[4, 2, 30]));
        combine_bytes(Dtype::U64, ReduceOp::Prod, &mut acc, &enc_u64(&[2, 3, 1]));
        assert_eq!(acc, enc_u64(&[8, 6, 30]));
    }

    #[test]
    fn combine_f64_preserves_fold_direction() {
        // acc := acc ⊕ other, never the reverse: 1/3 + 1 vs 1 + 1/3
        // differ in the last bit only if the fold flips — pin it.
        let third = 1.0f64 / 3.0;
        let mut acc = third.to_le_bytes().to_vec();
        combine_bytes(Dtype::F64, ReduceOp::Sum, &mut acc, &1.0f64.to_le_bytes());
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&acc);
        assert_eq!(f64::from_le_bytes(buf), third + 1.0);
    }

    #[test]
    fn pack_unpack_roundtrip_variable_sizes() {
        let parts: Vec<Vec<u8>> = vec![b"".to_vec(), b"abc".to_vec(), vec![7u8; 100]];
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let framed = pack_blocks(&refs);
        assert_eq!(unpack_blocks(&framed, 3), parts);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn combine_rejects_ragged_inputs() {
        let mut acc = vec![0u8; 8];
        combine_bytes(Dtype::U64, ReduceOp::Sum, &mut acc, &[0u8; 16]);
    }
}
