//! The wire protocol: 4-byte big-endian length prefix + UTF-8 JSON
//! payload, in both directions.
//!
//! Framing and transport are separated so the same codec drives the
//! TCP daemon (`bin/serve.rs`, via [`read_frame`]/[`write_frame`]) and
//! fully in-process tests/load generation (via [`encode`]/[`decode`]
//! over byte slices). Nothing here interprets the payload — request
//! and response shapes live in [`crate::server`].

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Frames above this size are refused (a corrupt or hostile length
/// prefix must not drive an allocation): 16 MiB, an order of magnitude
/// above the largest paper-schedule result report.
pub const MAX_FRAME: usize = 16 << 20;

/// Framing failures (transport errors stay `io::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Declared length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// Payload is not UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::BadUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

fn frame_len(payload: &str) -> u32 {
    // beff-analyze: allow(panicflow): every encoded payload is bounded by MAX_FRAME, far below u32::MAX
    u32::try_from(payload.len()).expect("payload under 4 GiB")
}

/// Encode one frame: length prefix + payload bytes.
pub fn encode(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&frame_len(payload).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Decode the first frame of `buf`. `Ok(None)` means the buffer does
/// not yet hold a whole frame (read more); `Ok(Some((payload, used)))`
/// returns the payload and how many bytes it consumed.
pub fn decode(buf: &[u8]) -> Result<Option<(String, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = std::str::from_utf8(&buf[4..4 + len])
        .map_err(|_| WireError::BadUtf8)?
        .to_string();
    Ok(Some((payload, 4 + len)))
}

/// Read one frame from a blocking transport. `Ok(None)` is a clean
/// end-of-stream at a frame boundary; EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(more) => got += more,
            // A stray signal is not a broken stream (`read_exact`
            // below retries it the same way).
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let payload = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, WireError::BadUtf8.to_string()))?;
    Ok(Some(payload))
}

/// Write one frame to a blocking transport: prefix and payload go out
/// as one vectored write (one segment on a socket, no Nagle stall
/// between them) straight from the caller's bytes.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let prefix = frame_len(payload).to_be_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload.as_bytes())];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// An in-memory duplex transport: reads consume a fixed input script,
/// writes append to [`output`](MemStream::output). This is how the
/// torture harness and the connection tests drive
/// [`serve_connection`](crate::server::serve_connection) through every
/// adversarial byte sequence — truncations, lying lengths, garbage —
/// without a socket, so the byte-level behaviour is deterministic and
/// replayable.
pub struct MemStream {
    input: io::Cursor<Vec<u8>>,
    /// Every byte the server wrote back, in order.
    pub output: Vec<u8>,
}

impl MemStream {
    pub fn new(input: Vec<u8>) -> Self {
        Self { input: io::Cursor::new(input), output: Vec::new() }
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn encode_decode_round_trip() {
        let bytes = encode(r#"{"op":"stats"}"#);
        let (payload, used) = decode(&bytes).expect("well-formed").expect("complete");
        assert_eq!(payload, r#"{"op":"stats"}"#);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn decode_waits_for_a_whole_frame() {
        let bytes = encode("hello");
        assert_eq!(decode(&bytes[..3]).expect("short prefix is fine"), None);
        assert_eq!(decode(&bytes[..7]).expect("short payload is fine"), None);
    }

    #[test]
    fn decode_leaves_trailing_bytes_for_the_next_frame() {
        let mut bytes = encode("one");
        bytes.extend_from_slice(&encode("two"));
        let (p1, used) = decode(&bytes).expect("ok").expect("complete");
        assert_eq!(p1, "one");
        let (p2, _) = decode(&bytes[used..]).expect("ok").expect("complete");
        assert_eq!(p2, "two");
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff];
        bytes.extend_from_slice(b"junk");
        assert!(matches!(decode(&bytes), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "alpha").expect("vec write");
        write_frame(&mut buf, "beta").expect("vec write");
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).expect("ok"), Some("alpha".into()));
        assert_eq!(read_frame(&mut r).expect("ok"), Some("beta".into()));
        assert_eq!(read_frame(&mut r).expect("clean eof"), None);
    }

    /// Fails with `Interrupted` before every chunk of at most 3 bytes,
    /// so both the length prefix and the payload arrive split.
    struct Interrupting {
        bytes: Cursor<Vec<u8>>,
        interrupt: bool,
    }

    impl Read for Interrupting {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3);
            self.bytes.read(&mut buf[..n])
        }
    }

    #[test]
    fn interrupted_reads_are_retried_and_the_frame_arrives_intact() {
        let mut bytes = encode(r#"{"op":"stats"}"#);
        bytes.extend_from_slice(&encode("beta"));
        let mut r = Interrupting { bytes: Cursor::new(bytes), interrupt: false };
        assert_eq!(read_frame(&mut r).ok(), Some(Some(r#"{"op":"stats"}"#.into())));
        assert_eq!(read_frame(&mut r).ok(), Some(Some("beta".into())));
        assert_eq!(read_frame(&mut r).ok(), Some(None), "then a clean EOF");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let bytes = encode("truncated");
        let mut r = Cursor::new(&bytes[..bytes.len() - 2]);
        assert!(read_frame(&mut r).is_err());
    }
}
