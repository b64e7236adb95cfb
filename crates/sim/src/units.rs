//! Units and formatting helpers shared by the whole stack.
//!
//! Virtual time is plain `f64` seconds ([`Secs`]); sizes are bytes.
//! The paper reports bandwidths in MByte/s (decimal mega), but message
//! and chunk sizes in binary units (1 kB = 1024 B in the b_eff sources),
//! so we keep both conventions explicit.

/// Virtual (or real) time in seconds.
pub type Secs = f64;

/// One kilobyte (binary, as used for the b_eff message-size ladder).
pub const KB: u64 = 1024;
/// One megabyte (binary).
pub const MB: u64 = 1024 * 1024;
/// One gigabyte (binary).
pub const GB: u64 = 1024 * 1024 * 1024;

/// Convert a byte count and a duration into MByte/s (binary MB, matching
/// the b_eff reference implementation's reporting).
#[inline]
pub fn mbps(bytes: u64, secs: Secs) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / MB as f64 / secs
}

/// Inverse of a bandwidth given in MByte/s: seconds per byte.
#[inline]
pub fn byte_time(mbytes_per_s: f64) -> Secs {
    1.0 / (mbytes_per_s * MB as f64)
}

/// Format a byte count the way the paper's tables do (1 kB, 32 kB, 1 MB,
/// "+8B" suffixes are handled by the caller).
pub fn fmt_bytes(b: u64) -> String {
    if b >= MB && b.is_multiple_of(MB) {
        format!("{} MB", b / MB)
    } else if b >= KB && b.is_multiple_of(KB) {
        format!("{} kB", b / KB)
    } else {
        format!("{} B", b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_basic() {
        assert_eq!(mbps(MB, 1.0), 1.0);
        assert_eq!(mbps(10 * MB, 2.0), 5.0);
    }

    #[test]
    fn mbps_zero_time_is_zero() {
        assert_eq!(mbps(MB, 0.0), 0.0);
        assert_eq!(mbps(MB, -1.0), 0.0);
    }

    #[test]
    fn byte_time_roundtrip() {
        let bt = byte_time(100.0); // 100 MB/s
        let t = bt * (100 * MB) as f64;
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fmt_bytes_paper_style() {
        assert_eq!(fmt_bytes(1024), "1 kB");
        assert_eq!(fmt_bytes(32 * KB), "32 kB");
        assert_eq!(fmt_bytes(MB), "1 MB");
        assert_eq!(fmt_bytes(1), "1 B");
        assert_eq!(fmt_bytes(1025), "1025 B");
    }
}
