//! Wire v2 framing: versioned, checksummed, bounded frames — the one
//! format `mplite` and `netpipe` speak. A connection begins directly
//! with its first frame:
//!
//! ```text
//!  offset  size  field
//!  0       2     magic  "MP"
//!  2       1     version (2)
//!  3       1     flags (must be 0; reserved)
//!  4       4     src rank, u32 LE
//!  8       4     tag, i32 LE
//!  12      8     payload length, u64 LE  (checked against max *before*
//!                                         any allocation)
//!  20      4     CRC32C over bytes 0..20 chained with the payload, LE
//!  24      …     payload
//! ```
//!
//! Every decode failure is a typed [`FrameError`], so survivors can name
//! the malformed peer instead of hanging or OOMing. There is no
//! negotiation: `check_prologue` runs on every header, so a peer
//! speaking any other version is a [`FrameError::VersionMismatch`] and
//! a non-mplite peer is a [`FrameError::BadMagic`], on its first frame.
//!
//! The push-based [`FrameDecoder`] steps the `mplite.frame_decoder`
//! protocol machine (`Magic → Header → Payload → Verified`), declared
//! with [`protospec::protocol!`] and stepped by matched tokens, so the
//! decoder cannot take an edge the table lacks. The in-tree fuzzer
//! ([`crate::fuzz`]) hammers this exact decoder.

use std::fmt;

use crate::message;

/// First two bytes of every v2 frame.
pub(crate) const MAGIC: [u8; 2] = *b"MP";

/// The framed format described in the module docs.
pub const WIRE_V2: u8 = 2;

/// Size of a v2 frame header.
pub const V2_HEADER_LEN: usize = 24;

/// Default cap on a single message's payload: 256 MiB. Anything larger
/// is rejected *before* allocation with [`FrameError::Oversized`].
pub const DEFAULT_MAX_MESSAGE: u64 = 1 << 28;

/// Effective payload cap: `MPLITE_MAX_MSG_BYTES` or
/// [`DEFAULT_MAX_MESSAGE`].
pub fn max_message_size() -> u64 {
    std::env::var("MPLITE_MAX_MSG_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MAX_MESSAGE)
}

// ---------------------------------------------------------------- CRC32C

/// Castagnoli polynomial, reflected form (the CRC32C used by iSCSI,
/// ext4 and SCTP — better error-detection spectrum than CRC-32/zlib).
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `t[0]` is the classic one-byte table, and
/// `t[k][b]` is the state `t[0][b]` reaches after `k` further zero
/// bytes, so eight input bytes fold with eight independent lookups.
const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// The portable kernel: slice-by-8 over whole 8-byte words, one table
/// step per trailing byte. Works on the raw (un-inverted) state.
fn update_slice8(mut s: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = s ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        s = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in tail {
        s = (s >> 8) ^ t[0][((s ^ b as u32) & 0xFF) as usize];
    }
    s
}

/// Product of two polynomials modulo the CRC32C polynomial, both in the
/// reflected form the running state uses (bit 31 is x^0).
#[cfg(target_arch = "x86_64")]
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32C_POLY
        } else {
            b >> 1
        };
        bit >>= 1;
    }
    p
}

/// Bytes per lane of the hardware kernel's three-lane blocks.
#[cfg(target_arch = "x86_64")]
const LANE: usize = 1024;

/// Folding `n` zero bytes into a state multiplies it by x^(8n); this
/// is that multiplication for `n = LANE`, as four byte-indexed lookups
/// (the map is linear, so the state's bytes shift independently).
#[cfg(target_arch = "x86_64")]
const fn lane_shift_table() -> [[u32; 256]; 4] {
    // x^(8 * LANE) by squaring x^8 up: LANE is a power of two.
    let mut x_pow = 1u32 << 23;
    let mut n = 1;
    while n < LANE {
        x_pow = gf2_mul(x_pow, x_pow);
        n *= 2;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = gf2_mul(x_pow, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
}

#[cfg(target_arch = "x86_64")]
static LANE_SHIFT: [[u32; 256]; 4] = lane_shift_table();

/// The x86-64 kernel: the SSE4.2 `crc32` instruction implements exactly
/// this polynomial, eight bytes per issue — but with a three-cycle
/// latency, so one dependent chain runs at a third of what the unit can
/// do. Each `3 * LANE`-byte block is therefore folded as three
/// independent chains (the first continues the running state, the other
/// two start from zero) and recombined through [`LANE_SHIFT`]; what is
/// left over runs as a single chain.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(s: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let shift = |v: u64| -> u32 {
        let t = &LANE_SHIFT;
        t[0][(v & 0xFF) as usize]
            ^ t[1][((v >> 8) & 0xFF) as usize]
            ^ t[2][((v >> 16) & 0xFF) as usize]
            ^ t[3][((v >> 24) & 0xFF) as usize]
    };
    let (blocks, rest) = data.as_chunks::<{ 3 * LANE }>();
    let mut s = s as u64;
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        let (a, bc) = words.split_at(LANE / 8);
        let (b, c) = bc.split_at(LANE / 8);
        let (mut sb, mut sc) = (0u64, 0u64);
        for ((wa, wb), wc) in a.iter().zip(b).zip(c) {
            s = _mm_crc32_u64(s, u64::from_le_bytes(*wa));
            sb = _mm_crc32_u64(sb, u64::from_le_bytes(*wb));
            sc = _mm_crc32_u64(sc, u64::from_le_bytes(*wc));
        }
        s = (shift((shift(s) ^ sb as u32) as u64) ^ sc as u32) as u64;
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        s = _mm_crc32_u64(s, u64::from_le_bytes(*w));
    }
    let mut s = s as u32;
    for &b in tail {
        s = _mm_crc32_u8(s, b);
    }
    s
}

/// Run the hardware kernel if this CPU has one. Detection is std's
/// cached CPUID probe (one relaxed load per call), so there is nothing
/// to configure and nothing to get wrong: the answer is a property of
/// the machine. `None` sends the caller to [`update_slice8`].
#[inline]
fn update_hw(s: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    #[expect(
        unsafe_code,
        reason = "a `target_feature` kernel is callable only once the CPU is known to have it"
    )]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42`'s only requirement is that the CPU
        // executes SSE4.2, which the line above just established.
        return Some(unsafe { update_sse42(s, data) });
    }
    // Unused where no hardware kernel is compiled in.
    let _ = (s, data);
    None
}

/// Incremental CRC32C state, so header and payload can be chained
/// without concatenating them in memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Fresh state.
    pub(crate) fn new() -> Crc32c {
        Crc32c { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running checksum: on the hardware kernel
    /// where the CPU has one, on slice-by-8 everywhere else. Every
    /// kernel computes the same function, bit for bit.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.state = match update_hw(self.state, data) {
            Some(s) => s,
            None => update_slice8(self.state, data),
        };
    }

    /// The final checksum value.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

// ------------------------------------------------------------ FrameError

/// Everything that can be wrong with a frame coming off the wire. Each
/// variant is `Copy` so verdicts travel through shared health tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not `MAGIC` — the stream is not
    /// speaking this protocol (or has lost sync).
    BadMagic {
        /// The bytes found where the magic should be.
        got: [u8; 2],
    },
    /// The version byte named a protocol revision we do not speak.
    VersionMismatch {
        /// The version byte found.
        got: u8,
    },
    /// The reserved flags byte was non-zero.
    BadFlags {
        /// The flags byte found.
        got: u8,
    },
    /// The declared payload length exceeds the configured cap; rejected
    /// *before* any allocation.
    Oversized {
        /// Declared payload length.
        len: u64,
        /// The cap in force ([`max_message_size`]).
        max: u64,
    },
    /// The stream ended (or the buffer ran out) mid-frame.
    Truncated {
        /// Bytes actually available.
        got: usize,
        /// Bytes the frame required.
        want: usize,
    },
    /// The CRC32C over header and payload did not match.
    ChecksumMismatch {
        /// Checksum declared in the frame.
        expect: u32,
        /// Checksum computed over the received bytes.
        got: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(
                    f,
                    "bad frame magic {:02x}{:02x} (want 4d50 \"MP\")",
                    got[0], got[1]
                )
            }
            FrameError::VersionMismatch { got } => {
                write!(f, "unsupported wire version {got} (speak {WIRE_V2})")
            }
            FrameError::BadFlags { got } => {
                write!(f, "reserved frame flags set: {got:#04x}")
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "frame declares {len} payload bytes, over the {max}-byte cap"
                )
            }
            FrameError::Truncated { got, want } => {
                write!(f, "frame truncated: {got} of {want} bytes")
            }
            FrameError::ChecksumMismatch { expect, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header says {expect:#010x}, bytes say {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Short machine-stable label for a frame error, used by fuzz stats and
/// fault summaries.
impl FrameError {
    /// The variant's stable name.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            FrameError::BadMagic { .. } => "bad-magic",
            FrameError::VersionMismatch { .. } => "version-mismatch",
            FrameError::BadFlags { .. } => "bad-flags",
            FrameError::Oversized { .. } => "oversized",
            FrameError::Truncated { .. } => "truncated",
            FrameError::ChecksumMismatch { .. } => "checksum-mismatch",
        }
    }
}

// ------------------------------------------------------------- encoding

/// Encode a frame header. `version` is stamped verbatim into byte 2
/// (receivers accept only [`WIRE_V2`]). Returns the header buffer and
/// the number of valid bytes in it (always [`V2_HEADER_LEN`]). The
/// trailing CRC32C covers the header prefix chained with `payload`.
pub fn build_header(
    version: u8,
    src: u32,
    tag: i32,
    payload: &[u8],
) -> ([u8; V2_HEADER_LEN], usize) {
    let mut h = [0u8; V2_HEADER_LEN];
    h[0..2].copy_from_slice(&MAGIC);
    h[2] = version;
    h[3] = 0;
    h[4..8].copy_from_slice(&src.to_le_bytes());
    h[8..12].copy_from_slice(&tag.to_le_bytes());
    h[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut crc = Crc32c::new();
    crc.update(&h[..20]);
    crc.update(payload);
    h[20..24].copy_from_slice(&crc.finish().to_le_bytes());
    (h, V2_HEADER_LEN)
}

// ------------------------------------------------------------- decoding

/// Validate the 4-byte v2 prologue (magic, version, flags).
pub(crate) fn check_prologue(p: &[u8]) -> Result<(), FrameError> {
    if p.len() < 4 {
        return Err(FrameError::Truncated {
            got: p.len(),
            want: 4,
        });
    }
    if p[0..2] != MAGIC {
        return Err(FrameError::BadMagic { got: [p[0], p[1]] });
    }
    if p[2] != WIRE_V2 {
        return Err(FrameError::VersionMismatch { got: p[2] });
    }
    if p[3] != 0 {
        return Err(FrameError::BadFlags { got: p[3] });
    }
    Ok(())
}

/// A validated header whose payload has not arrived yet. The receiver
/// reads exactly [`PendingFrame::len`] more bytes (already bounded by
/// the cap) and then calls [`PendingFrame::verify`].
#[derive(Debug, Clone, Copy)]
pub struct PendingFrame {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: i32,
    /// Payload length, already checked against the cap.
    pub len: u64,
    /// CRC state after folding the header prefix.
    crc: Crc32c,
    /// Checksum the header declared.
    expect: u32,
}

/// Decode and validate a header, bounding the declared length against
/// `max` *before* the caller allocates anything. `hdr` must hold at
/// least [`V2_HEADER_LEN`] bytes.
pub fn decode_any_header(hdr: &[u8], max: u64) -> Result<PendingFrame, FrameError> {
    if hdr.len() < V2_HEADER_LEN {
        return Err(FrameError::Truncated {
            got: hdr.len(),
            want: V2_HEADER_LEN,
        });
    }
    check_prologue(&hdr[..4])?;
    let src = u32::from_le_bytes(message::le_bytes(&hdr[4..8]));
    let tag = i32::from_le_bytes(message::le_bytes(&hdr[8..12]));
    let len = u64::from_le_bytes(message::le_bytes(&hdr[12..20]));
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let expect = u32::from_le_bytes(message::le_bytes(&hdr[20..24]));
    let mut crc = Crc32c::new();
    crc.update(&hdr[..20]);
    Ok(PendingFrame {
        src,
        tag,
        len,
        crc,
        expect,
    })
}

impl PendingFrame {
    /// Check the received payload against the header's declared length
    /// and checksum.
    pub fn verify(&self, payload: &[u8]) -> Result<(), FrameError> {
        if payload.len() as u64 != self.len {
            return Err(FrameError::Truncated {
                got: payload.len(),
                want: self.len as usize,
            });
        }
        let mut crc = self.crc;
        crc.update(payload);
        let got = crc.finish();
        if got != self.expect {
            return Err(FrameError::ChecksumMismatch {
                expect: self.expect,
                got,
            });
        }
        Ok(())
    }
}

// --------------------------------------------------------- FrameDecoder

/// The frame-decode lifecycle as a protocol machine, in its own module
/// because `protocol!` emits one ZST per state name.
pub(crate) mod decoder_spec {
    protospec::protocol! {
        /// One v2 frame's trip through the decoder: prologue validated,
        /// fixed fields validated (length bounded), payload checksummed,
        /// frame emitted. `Magic` (between frames) and `Verified` (frame
        /// complete) are the quiescent states.
        pub FrameDecodeState of mplite.frame_decoder;
        states Magic, Header, Payload, Verified;
        terminal Magic, Verified;
        Magic --prologue?--> Header;
        Header --fields?--> Payload;
        Payload --checksum~--> Verified;
        Verified --emit~--> Magic;
    }
}

pub use decoder_spec::FrameDecodeState;

/// A fully validated, decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: i32,
    /// Verified payload.
    pub payload: Vec<u8>,
}

/// Push-based v2 frame decoder: feed it arbitrary byte chunks, get back
/// verified frames or a typed [`FrameError`]. Never allocates a payload
/// buffer before the declared length clears the cap, and never panics on
/// malformed input — the in-tree fuzzer ([`crate::fuzz`]) holds it to
/// that. After an error the stream has lost sync and the decoder must
/// be discarded.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max: u64,
    state: FrameDecodeState,
    pending: Option<PendingFrame>,
}

impl FrameDecoder {
    /// A decoder enforcing the `max` payload cap.
    pub fn new(max: u64) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            max,
            state: FrameDecodeState::initial(),
            pending: None,
        }
    }

    /// Feed a chunk; returns every frame completed by it. The first
    /// error is final for this decoder.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        loop {
            match self.state {
                FrameDecodeState::Magic(s) => {
                    if self.buf.len() < 4 {
                        break;
                    }
                    check_prologue(&self.buf[..4])?;
                    self.state = s.prologue().into();
                }
                FrameDecodeState::Header(s) => {
                    if self.buf.len() < V2_HEADER_LEN {
                        break;
                    }
                    let pf = decode_any_header(&self.buf[..V2_HEADER_LEN], self.max)?;
                    self.pending = Some(pf);
                    self.state = s.fields().into();
                }
                FrameDecodeState::Payload(s) => {
                    let Some(pf) = self.pending else { break };
                    let need = V2_HEADER_LEN + pf.len as usize;
                    if self.buf.len() < need {
                        break;
                    }
                    let payload = self.buf[V2_HEADER_LEN..need].to_vec();
                    pf.verify(&payload)?;
                    out.push(Frame {
                        src: pf.src,
                        tag: pf.tag,
                        payload,
                    });
                    self.buf.drain(..need);
                    self.pending = None;
                    self.state = s.checksum().emit().into();
                }
                // Never stored: `Payload` steps to a `Magic` token.
                FrameDecodeState::Verified(_) => break,
            }
        }
        Ok(out)
    }

    /// Signal end-of-stream. Leftover bytes mean the stream died
    /// mid-frame: a typed truncation naming how much was missing.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buf.is_empty() && matches!(self.state, FrameDecodeState::Magic(_)) {
            return Ok(());
        }
        let want = match self.pending {
            Some(pf) => V2_HEADER_LEN + pf.len as usize,
            None => V2_HEADER_LEN,
        };
        Err(FrameError::Truncated {
            got: self.buf.len(),
            want,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(src: u32, tag: i32, payload: &[u8]) -> Vec<u8> {
        let (h, n) = build_header(WIRE_V2, src, tag, payload);
        let mut out = h[..n].to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// The reference oracle: the one-byte-at-a-time table loop every
    /// release before this one shipped as *the* kernel.
    fn update_bytewise(mut s: u32, data: &[u8]) -> u32 {
        for &b in data {
            s = (s >> 8) ^ CRC_TABLES[0][((s ^ b as u32) & 0xFF) as usize];
        }
        s
    }

    type Kernel = fn(u32, &[u8]) -> Option<u32>;

    /// Every kernel, by direct call (the hardware one answers `None`
    /// where the CPU lacks it, and is skipped).
    const KERNELS: [(&str, Kernel); 3] = [
        ("bytewise", |s, d| Some(update_bytewise(s, d))),
        ("slice8", |s, d| Some(update_slice8(s, d))),
        ("hw", update_hw),
    ];

    #[test]
    fn every_kernel_passes_the_rfc3720_vectors() {
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        // RFC 3720 §B.4, plus the canonical check value and the empty
        // message.
        let vectors: [(&[u8], u32); 6] = [
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
            (b"", 0),
        ];
        for (name, kernel) in KERNELS {
            for (data, want) in vectors {
                let Some(s) = kernel(!0, data) else { continue };
                assert_eq!(!s, want, "{name} over {data:02x?}");
            }
        }
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "dispatched over {data:02x?}");
        }
    }

    #[test]
    fn every_kernel_equals_the_bytewise_oracle() {
        let mut rng = simcore::SimRng::new(0xC4C3_2C00);
        let mut lens: Vec<usize> = (0..=1100).collect();
        // Either side of one and of two of the hardware kernel's
        // three-lane blocks, then the issue's large sizes.
        lens.extend((3072 - 9)..=(3072 + 9));
        lens.extend((6144 - 9)..=(6144 + 9));
        lens.extend((65_536 - 9)..=(65_536 + 9));
        lens.push((1 << 20) + 3);
        let max = (1 << 20) + 3 + 16;
        let mut pool = vec![0u8; max];
        for chunk in pool.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        for (i, &len) in lens.iter().enumerate() {
            // Every start misalignment is visited many times over.
            let data = &pool[i % 16..i % 16 + len];
            let init = rng.next_u64() as u32;
            let want = update_bytewise(init, data);
            // One random split point: chained `update`s must agree
            // with the one-shot value.
            let cut = (rng.next_u64() % (len as u64 + 1)) as usize;
            for (name, kernel) in &KERNELS[1..] {
                let Some(one_shot) = kernel(init, data) else {
                    continue;
                };
                assert_eq!(one_shot, want, "{name}: len {len} at offset {}", i % 16);
                let chained = kernel(init, &data[..cut]).and_then(|s| kernel(s, &data[cut..]));
                assert_eq!(chained, Some(want), "{name}: len {len} cut at {cut}");
            }
            let mut c = Crc32c { state: init };
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.state, want, "dispatched: len {len} cut at {cut}");
        }
    }

    #[test]
    fn the_hardware_kernel_is_selected_whenever_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let has_hw = std::arch::is_x86_feature_detected!("sse4.2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_hw = false;
        // A silent fall-back to the portable kernel must fail here, not
        // show up months later as a slow plateau.
        assert_eq!(update_hw(!0, b"dispatch").is_some(), has_hw);
    }

    #[test]
    fn crc32c_incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut inc = Crc32c::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finish(), crc32c(data));
    }

    #[test]
    fn v2_header_round_trips() {
        let payload = b"hello wire";
        let (h, n) = build_header(WIRE_V2, 7, -3, payload);
        assert_eq!(n, V2_HEADER_LEN);
        let pf = decode_any_header(&h, DEFAULT_MAX_MESSAGE).expect("valid header");
        assert_eq!((pf.src, pf.tag, pf.len), (7, -3, payload.len() as u64));
        pf.verify(payload).expect("checksum holds");
    }

    #[test]
    fn oversized_is_rejected_before_any_allocation() {
        let mut h = [0u8; V2_HEADER_LEN];
        h[0..2].copy_from_slice(&MAGIC);
        h[2] = WIRE_V2;
        h[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_any_header(&h, 1024).expect_err("must reject");
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u64::MAX,
                max: 1024
            }
        );
    }

    #[test]
    fn corrupted_payload_is_a_checksum_mismatch() {
        let payload = b"payload".to_vec();
        let (h, _) = build_header(WIRE_V2, 0, 0, &payload);
        let pf = decode_any_header(&h, 1 << 20).expect("header ok");
        let mut bad = payload.clone();
        bad[3] ^= 0x10;
        assert!(matches!(
            pf.verify(&bad),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn prologue_errors_are_typed() {
        assert!(matches!(
            check_prologue(b"XYzz"),
            Err(FrameError::BadMagic { .. })
        ));
        assert!(matches!(
            check_prologue(&[b'M', b'P', 9, 0]),
            Err(FrameError::VersionMismatch { got: 9 })
        ));
        assert!(matches!(
            check_prologue(&[b'M', b'P', WIRE_V2, 1]),
            Err(FrameError::BadFlags { got: 1 })
        ));
    }

    #[test]
    fn decoder_reassembles_frames_across_arbitrary_chunks() {
        let mut wire = frame_bytes(1, 5, b"first");
        wire.extend_from_slice(&frame_bytes(2, -9, b""));
        wire.extend_from_slice(&frame_bytes(3, 0, &[7u8; 300]));
        let mut dec = FrameDecoder::new(1 << 20);
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            got.extend(dec.feed(chunk).expect("valid stream"));
        }
        dec.finish().expect("stream ended between frames");
        assert_eq!(got.len(), 3);
        assert_eq!(
            (got[0].src, got[0].tag, got[0].payload.as_slice()),
            (1, 5, &b"first"[..])
        );
        assert_eq!(got[1].payload.len(), 0);
        assert_eq!(got[2].payload, vec![7u8; 300]);
        assert!(matches!(dec.state, FrameDecodeState::Magic(_)));
    }

    #[test]
    fn decoder_reports_midframe_eof_as_truncation() {
        let wire = frame_bytes(1, 5, b"never finishes");
        let mut dec = FrameDecoder::new(1 << 20);
        let frames = dec.feed(&wire[..wire.len() - 3]).expect("no error yet");
        assert!(frames.is_empty());
        let err = dec.finish().expect_err("mid-frame EOF");
        assert!(matches!(err, FrameError::Truncated { .. }), "{err}");
    }

    #[test]
    fn decoder_rejects_garbage_at_frame_start() {
        let mut dec = FrameDecoder::new(1 << 20);
        let err = dec.feed(b"GARBAGE!").expect_err("bad magic");
        assert!(matches!(err, FrameError::BadMagic { .. }), "{err}");
    }
}
