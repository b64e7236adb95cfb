//! An I/O server: a serially-shared disk resource with per-request
//! overhead, streaming bandwidth, an optional *seek* model (a request
//! that does not extend one of the server's recent streams pays a disk
//! arm movement) and an adjustable speed factor for
//! failure/degradation injection. Plain state: one slot of its
//! filesystem's ledger ([`crate::fs`]), touched only under that lock.

use beff_netsim::{resource, Secs, MB};

/// How many concurrent stream tails the server's track buffers follow.
const STREAMS: usize = 16;

/// Prefetch window: a request within this distance of a tracked stream
/// tail counts as sequential (striped requests advance in *file*
/// offsets by a full stripe round, not by the per-server byte count).
const STREAM_SLACK: u64 = 1024 * 1024;

/// Occupy a plain FIFO resource — what `Resource::new()` is — whose
/// next-free time the caller holds; returns the finish time. The
/// arithmetic is [`resource::book`], the one `Resource` itself runs.
#[inline]
pub(crate) fn occupy(next_free: &mut Secs, earliest: Secs, duration: Secs) -> Secs {
    resource::book(next_free, 1.0, earliest, duration).1
}

#[derive(Debug)]
pub struct Server {
    next_free: Secs,
    request_overhead: Secs,
    /// Extra cost when a request does not extend a recent stream
    /// (0.0 disables seek modeling — the default for the calibrated
    /// machine models, which the paper's benchmark does not probe).
    seek_overhead: Secs,
    byte_time: Secs,
    /// Recent stream end-offsets (prefetch/track buffers) and the
    /// round-robin victim cursor.
    streams: [u64; STREAMS],
    cursor: usize,
    /// 1.0 = healthy; 0.5 = half speed; small values ~ outage.
    speed_factor: f64,
}

impl Server {
    pub fn new(request_overhead: Secs, mbps: f64) -> Self {
        Self {
            next_free: 0.0,
            request_overhead,
            seek_overhead: 0.0,
            byte_time: 1.0 / (mbps * MB as f64),
            streams: [u64::MAX; STREAMS],
            cursor: 0,
            speed_factor: 1.0,
        }
    }

    /// Enable/disable the seek model.
    pub fn set_seek_overhead(&mut self, seek: Secs) {
        self.seek_overhead = seek;
    }

    /// Serve a request of `bytes` arriving at `t`; returns completion.
    pub fn request(&mut self, t: Secs, bytes: u64) -> Secs {
        self.request_at(t, bytes, None)
    }

    /// Serve a request with a known file offset: sequential extensions
    /// of a recent stream skip the seek cost.
    pub fn request_at(&mut self, t: Secs, bytes: u64, offset: Option<u64>) -> Secs {
        let mut extra = 0.0;
        if self.seek_overhead > 0.0 {
            if let Some(off) = offset {
                let near = |e: u64| e != u64::MAX && e.abs_diff(off) <= STREAM_SLACK;
                if let Some(slot) = self.streams.iter().position(|&e| near(e)) {
                    self.streams[slot] = off + bytes; // extends a stream: no seek
                } else {
                    extra = self.seek_overhead;
                    // round-robin victim replacement
                    self.streams[self.cursor] = off + bytes;
                    self.cursor = (self.cursor + 1) % STREAMS;
                }
            } else {
                extra = self.seek_overhead;
            }
        }
        let dur =
            (self.request_overhead + extra + bytes as f64 * self.byte_time) / self.speed_factor;
        occupy(&mut self.next_free, t, dur)
    }

    /// Degrade (or restore) the server.
    pub fn set_speed_factor(&mut self, f: f64) {
        assert!(f > 0.0, "speed factor must be positive");
        self.speed_factor = f;
    }

    /// Next-free time (diagnostics).
    pub fn horizon(&self) -> Secs {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_costs_overhead_plus_transfer() {
        let mut s = Server::new(1e-3, 1.0); // 1 ms + 1 MB/s
        let done = s.request(0.0, MB);
        assert!((done - 1.001).abs() < 1e-9, "done={done}");
    }

    #[test]
    fn requests_serialize() {
        let mut s = Server::new(0.0, 1.0);
        let a = s.request(0.0, MB);
        let b = s.request(0.0, MB);
        assert!((a - 1.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_server_is_slower() {
        let mut s = Server::new(0.0, 10.0);
        let healthy = s.request(0.0, 10 * MB) - 0.0;
        s.set_speed_factor(0.25);
        let t0 = s.horizon();
        let degraded = s.request(t0, 10 * MB) - t0;
        assert!((degraded / healthy - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_factor_rejected() {
        Server::new(0.0, 10.0).set_speed_factor(0.0);
    }

    #[test]
    fn sequential_streams_skip_seeks() {
        let mut s = Server::new(0.0, 1.0);
        s.set_seek_overhead(0.5);
        // first touch pays the seek, extensions do not
        let mut t = s.request_at(0.0, MB, Some(0));
        assert!((t - 1.5).abs() < 1e-9, "first request seeks: {t}");
        t = s.request_at(t, MB, Some(MB));
        assert!((t - 2.5).abs() < 1e-9, "extension is seek-free: {t}");
        // a far-away request seeks again
        t = s.request_at(t, MB, Some(100 * MB));
        assert!((t - 4.0).abs() < 1e-9, "random access seeks: {t}");
        // near-miss within the prefetch window is sequential
        t = s.request_at(t, MB, Some(101 * MB + 512 * 1024));
        assert!((t - 5.0).abs() < 1e-9, "prefetch window covers slack: {t}");
    }

    #[test]
    fn seek_model_disabled_by_default() {
        let mut s = Server::new(0.0, 1.0);
        let t = s.request_at(0.0, MB, Some(777));
        assert!((t - 1.0).abs() < 1e-9);
    }
}
