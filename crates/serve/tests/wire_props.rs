//! Property tests for the frame codec (ISSUE 9 satellite): decoding is
//! total — any byte sequence, hostile or truncated, produces a typed
//! outcome (`Ok(None)` for "need more", a payload, or a [`WireError`])
//! and never panics; and what `encode` writes (and `write_frame` sends
//! byte for byte), `decode` and `read_frame` read back exactly, empty
//! payloads included.

use beff_check::{check, Gen};
use beff_serve::wire::{self, WireError, MAX_FRAME};
use std::io::Cursor;

fn arbitrary_bytes(g: &mut Gen, max_len: usize) -> Vec<u8> {
    let len = g.usize(0..=max_len);
    (0..len).map(|_| g.u32(0..=255) as u8).collect()
}

#[test]
fn decode_is_total_on_arbitrary_bytes() {
    check("decode_is_total_on_arbitrary_bytes", |g| {
        let buf = arbitrary_bytes(g, 96);
        match wire::decode(&buf) {
            Ok(None) => {
                // "Need more": either no whole prefix yet, or the
                // declared (in-cap) length outruns the buffer.
                if buf.len() >= 4 {
                    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                    assert!(len <= MAX_FRAME, "oversized lengths must be refused, not deferred");
                    assert!(4 + len > buf.len(), "a complete frame must decode");
                }
            }
            Ok(Some((payload, used))) => {
                assert!(used <= buf.len());
                assert_eq!(used, 4 + payload.len(), "consumed exactly one frame");
                assert_eq!(payload.as_bytes(), &buf[4..used], "payload bytes verbatim");
            }
            Err(WireError::TooLarge(n)) => assert!(n > MAX_FRAME),
            Err(WireError::BadUtf8) => {
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                assert!(std::str::from_utf8(&buf[4..4 + len]).is_err());
            }
        }
    });
}

#[test]
fn read_frame_is_total_on_arbitrary_bytes() {
    check("read_frame_is_total_on_arbitrary_bytes", |g| {
        let buf = arbitrary_bytes(g, 96);
        let mut r = Cursor::new(buf.clone());
        // Never panics; errors are typed io errors with the two frame
        // failure kinds (protocol lies and mid-frame EOF).
        match wire::read_frame(&mut r) {
            Ok(None) => assert!(buf.is_empty(), "clean EOF only at a frame boundary"),
            Ok(Some(payload)) => {
                assert_eq!(payload.as_bytes(), &buf[4..4 + payload.len()]);
            }
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                ),
                "unexpected error kind {:?}",
                e.kind()
            ),
        }
    });
}

#[test]
fn length_lies_within_the_cap_are_need_more_never_allocation_bombs() {
    check("length_lies_within_the_cap", |g| {
        // A prefix declaring an in-cap length the buffer does not
        // hold: decode defers, read_frame reports mid-frame EOF typed.
        let declared = g.usize(1..=MAX_FRAME);
        let have = g.usize(0..=declared.min(64) - 1);
        let mut buf = (declared as u32).to_be_bytes().to_vec();
        buf.extend(std::iter::repeat(b'x').take(have));
        assert_eq!(wire::decode(&buf).expect("in-cap lie is not a codec error"), None);
        let e = wire::read_frame(&mut Cursor::new(buf)).expect_err("stream ends mid-frame");
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
    });
}

#[test]
fn oversized_lengths_are_always_typed_too_large() {
    check("oversized_lengths_are_typed", |g| {
        let declared = g.u64(MAX_FRAME as u64 + 1..=u32::MAX as u64) as u32;
        let mut buf = declared.to_be_bytes().to_vec();
        buf.extend(arbitrary_bytes(g, 16));
        assert!(matches!(wire::decode(&buf), Err(WireError::TooLarge(n)) if n > MAX_FRAME));
        let e = wire::read_frame(&mut Cursor::new(buf)).expect_err("refused before allocating");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    });
}

#[test]
fn round_trip_including_empty_payloads() {
    check("round_trip_including_empty_payloads", |g| {
        // Arbitrary UTF-8 (char-built), with the empty payload always
        // reachable: an empty frame is valid, not an error or EOF.
        let len = g.usize(0..=24);
        let payload: String =
            (0..len).map(|_| char::from_u32(g.u32(1..=0xD7FF)).expect("below surrogates")).collect();
        let bytes = wire::encode(&payload);
        let mut written = Vec::new();
        assert!(wire::write_frame(&mut written, &payload).is_ok());
        assert_eq!(written, bytes, "write_frame sends exactly the encoded frame");
        let (back, used) = wire::decode(&bytes).expect("own frame decodes").expect("complete");
        assert_eq!(back, payload);
        assert_eq!(used, bytes.len());
        let mut r = Cursor::new(bytes);
        assert_eq!(wire::read_frame(&mut r).expect("own frame reads"), Some(payload));
        assert_eq!(wire::read_frame(&mut r).expect("then a clean EOF"), None);
    });
}
