//! Property tests for the v2 wire framing: encode↔decode round-trips
//! across the field extremes, the pre-allocation length bound, and the
//! CRC's answer to every possible single-bit flip.

use mplite::frame::{
    build_header, decode_any_header, FrameDecoder, FrameError, DEFAULT_MAX_MESSAGE, V2_HEADER_LEN,
    WIRE_V2,
};

/// Wire bytes of one complete v2 frame.
fn encode(src: u32, tag: i32, payload: &[u8]) -> Vec<u8> {
    let (hdr, n) = build_header(WIRE_V2, src, tag, payload);
    let mut out = hdr[..n].to_vec();
    out.extend_from_slice(payload);
    out
}

#[test]
fn header_round_trips_across_the_extremes() {
    let srcs = [0u32, 1, u32::MAX];
    let tags = [i32::MIN, -1, 0, 1, i32::MAX];
    let payloads: [&[u8]; 3] = [b"", b"x", &[0xA5; 4096]];
    for &src in &srcs {
        for &tag in &tags {
            for &payload in &payloads {
                let (hdr, n) = build_header(WIRE_V2, src, tag, payload);
                assert_eq!(n, V2_HEADER_LEN);
                let pf = decode_any_header(&hdr[..n], DEFAULT_MAX_MESSAGE)
                    .unwrap_or_else(|e| panic!("src={src} tag={tag}: {e}"));
                assert_eq!(pf.src, src);
                assert_eq!(pf.tag, tag);
                assert_eq!(pf.len, payload.len() as u64);
                pf.verify(payload)
                    .unwrap_or_else(|e| panic!("src={src} tag={tag}: {e}"));
            }
        }
    }
}

#[test]
fn whole_frames_round_trip_through_the_decoder() {
    for (src, tag, payload) in [
        (0u32, 0i32, Vec::new()),
        (u32::MAX, i32::MIN, vec![0u8; 1]),
        (9, i32::MAX, (0..=255u8).cycle().take(10_000).collect()),
    ] {
        let wire = encode(src, tag, &payload);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_MESSAGE);
        let frames = dec.feed(&wire).expect("valid frame decodes");
        dec.finish().expect("no leftover bytes");
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].src, src);
        assert_eq!(frames[0].tag, tag);
        assert_eq!(frames[0].payload, payload);
    }
}

#[test]
fn absurd_length_is_rejected_before_any_allocation() {
    let (mut hdr, n) = build_header(WIRE_V2, 1, 2, b"abc");
    hdr[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    match decode_any_header(&hdr[..n], DEFAULT_MAX_MESSAGE) {
        Err(FrameError::Oversized { len, max }) => {
            assert_eq!(len, u64::MAX);
            assert_eq!(max, DEFAULT_MAX_MESSAGE);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// The hard property: flip ANY single bit of a valid frame and the
/// decoder must reject it — a typed error from `feed` or from `finish`
/// (a length-field flip can leave the stream short, which only EOF can
/// prove). No flip may yield the original clean message.
#[test]
fn every_single_bit_flip_of_a_valid_frame_is_rejected() {
    let payload = b"protocol-dependent bytes";
    let wire = encode(3, 17, payload);
    let mut rejected_by_feed = 0u32;
    let mut rejected_by_finish = 0u32;
    for bit in 0..wire.len() * 8 {
        let mut mutant = wire.clone();
        mutant[bit / 8] ^= 1 << (bit % 8);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_MESSAGE);
        match dec.feed(&mutant) {
            Err(_) => rejected_by_feed += 1,
            Ok(frames) => {
                // Any frame that does come out must not be the original.
                for f in &frames {
                    assert!(
                        f.src != 3 || f.tag != 17 || f.payload != payload,
                        "bit {bit}: flip survived as the clean message"
                    );
                }
                match dec.finish() {
                    Err(_) => rejected_by_finish += 1,
                    Ok(()) => panic!("bit {bit}: flipped frame decoded cleanly: {frames:?}"),
                }
            }
        }
    }
    // Both rejection paths must actually fire across the sweep: CRC /
    // header checks catch most flips, EOF-on-short-stream catches
    // length-field flips that shrink the declared payload.
    assert!(rejected_by_feed > 0);
    assert!(rejected_by_finish > 0, "no flip exercised the finish path");
}

#[test]
fn chunk_boundaries_never_change_the_verdict() {
    let wire = [
        encode(1, 1, b"alpha"),
        encode(2, 2, b""),
        encode(3, 3, &[9u8; 777]),
    ]
    .concat();
    for chunk in [1usize, 2, 3, 7, 16, 23, 64, wire.len()] {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_MESSAGE);
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            frames.extend(dec.feed(piece).expect("valid stream"));
        }
        dec.finish().expect("stream ends on a frame boundary");
        assert_eq!(frames.len(), 3, "chunk={chunk}");
        assert_eq!(frames[2].payload.len(), 777, "chunk={chunk}");
    }
}
